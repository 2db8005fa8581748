"""Smooth-topology bookkeeping for surgery presentations.

Everything here is exact integer linear algebra: linking matrices of
surgery presentations, Smith normal form for first homology, and signed
determinants.  These computations are the independent cross-checks for
the contact-level machinery: two routes to the same manifold must
present the same H1.

H1 of a diagram
---------------

A contact pushoff P of K links every other component as K does, so row P
of the linking matrix minus row K is almost all zeros.  ``h1`` slides each
pushoff over its parent this way (a handle slide: a row operation on the
presentation matrix), using the parent's original row; every parent is
listed before its pushoffs.  When the pushoff is also its parent's only
child, its column is slid over the parent's column as well.  The row
operations form a lower and the column operations an upper unitriangular
integer matrix, both unimodular, so the cokernel is unchanged whatever
linkings a diagram records.  In a nested (-1)-chain, each knot a stabilized
pushoff of the one before, the slid rows alone hold n^2/2 entries, since
each frozen parent linking differs from the next; with the columns slid
too they are tridiagonal.  The columns of several children of one parent,
such as the tower's, are not slid: that would make the tower dense.

``_slid_rows`` builds the slid rows as dicts straight from the diagram's
stored form, with no dense matrix, in time linear in the nonzero slid
entries plus the stored entries: at most 4 a knot in the presentations
the package builds.

``smith_normal_form`` and ``det_signed`` share one elimination.  The
sparse phase keeps rows as dicts, eliminates on +/-1 pivots from short
rows (each an invariant factor 1) and splits off entries alone in their
row and column (a summand Z/|v|), found through a queue of short rows
and a heap of the others, and records its pivots.  On the dense block
left, ``_bareiss`` gives the rank r and a nonzero r x r minor D: the
determinant is the pivots' product times D, signed, and the dense Smith
phase reduces the block modulo 2|D|, so no entry grows past it.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import compress, count
from operator import index

from .errors import (
    CalculusError,
    NormalizationRequiredError,
    ParseError,
)
from .rationals import SurgeryCoeff, coeff as _coerce_coeff
from .diagrams import ContactDiagram


# ---------------------------------------------------------------------------
# Manifold identifiers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Manifold:
    """A name for a closed oriented 3-manifold, as used in rank tables and
    certificates.

    Kinds: "s3", "s1xs2", "poincare" (the positively-oriented Poincare
    sphere), "lens" (lens(p, q), p >= 2, 1 <= q < p coprime), "tower" /
    "-tower" (stage-k tower of trefoil pushoffs and its reverse), "trefoil"
    (p/q-surgery on the right trefoil).  Each kind determines the order of
    H1 (``expected_h1_order``).
    """

    kind: str
    p: int = 0
    q: int = 0

    _KINDS = ("s3", "s1xs2", "poincare", "lens", "tower", "-tower", "trefoil")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise CalculusError(f"unknown manifold kind {self.kind!r}")
        # Manifolds key the rank tables, so the hash is computed once.
        object.__setattr__(self, "_hash", hash((self.kind, self.p, self.q)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def s3(cls):
        return cls("s3")

    @classmethod
    def s1xs2(cls):
        return cls("s1xs2")

    @classmethod
    def poincare(cls):
        return cls("poincare")

    @classmethod
    def lens(cls, p: int, q: int):
        """lens(p, q); q is reduced mod p, and lens(1, *) collapses to s3."""
        if p < 0:
            p, q = -p, -q
        if p == 0:
            raise CalculusError("lens space order must be nonzero")
        q %= p
        if p == 1:
            return cls.s3()
        if math.gcd(p, q) != 1:
            raise CalculusError(f"lens({p},{q}) needs coprime parameters")
        return cls("lens", p, q)

    @classmethod
    def tower(cls, k: int):
        if k < 1:
            raise CalculusError("tower stage must be >= 1")
        return cls("tower", k)

    @classmethod
    def neg_tower(cls, k: int):
        if k < 1:
            raise CalculusError("tower stage must be >= 1")
        return cls("-tower", k)

    @classmethod
    def trefoil_surgery(cls, r):
        r = _coerce_coeff(r)
        return cls("trefoil", r.num, r.den)

    def text(self) -> str:
        if self.kind in ("s3", "s1xs2", "poincare"):
            return self.kind
        if self.kind == "lens":
            return f"lens({self.p},{self.q})"
        if self.kind == "tower":
            return f"tower({self.p})"
        if self.kind == "-tower":
            return f"-tower({self.p})"
        return f"trefoil({SurgeryCoeff(self.p, self.q)})"

    __str__ = text

    @classmethod
    def parse(cls, text: str) -> "Manifold":
        text = text.strip()
        if text in ("s3", "s1xs2", "poincare"):
            return cls(text)
        head, _, body = text.partition("(")
        maker = _PARAMETRIZED.get(head)
        if maker is not None and body.endswith(")"):
            try:
                return maker(cls, body[:-1])
            except (ValueError, CalculusError) as exc:
                raise ParseError(f"bad manifold {text!r}: {exc}") from None
        raise ParseError(f"bad manifold {text!r}")

    def mirror(self) -> "Manifold":
        """The same manifold with reversed orientation, where this package
        can name it: by ``MIRROR_KIND`` at the same stage, or lens(p, p - q)."""
        kind = MIRROR_KIND.get(self.kind)
        if kind is not None:
            return Manifold(kind, self.p)
        if self.kind == "lens":
            return Manifold.lens(self.p, self.p - self.q)
        raise CalculusError(f"no reversed-orientation name for {self.text()}")

    def expected_h1_order(self) -> int:
        """|H1|, which the kind determines (0 = infinite)."""
        if self.kind in ("s3", "poincare"):
            return 1
        if self.kind == "s1xs2":
            return 0
        if self.kind in ("lens", "tower", "-tower"):
            return self.p
        return abs(self.p)


# Kind -> the kind of the same manifold with reversed orientation, for
# the kinds whose reversal keeps the stage and names no other parameter.
MIRROR_KIND = {"s3": "s3", "s1xs2": "s1xs2", "tower": "-tower", "-tower": "tower"}


def _parse_lens(cls, body):
    p_str, q_str = body.split(",")
    return cls.lens(int(p_str), int(q_str))


# Text before "(" -> the maker of a manifold from the text inside, for the
# kinds ``Manifold.parse`` reads as "<kind>(<parameters>)".
_PARAMETRIZED = {
    "lens": _parse_lens,
    "tower": lambda cls, body: cls.tower(int(body)),
    "-tower": lambda cls, body: cls.neg_tower(int(body)),
    "trefoil": lambda cls, body: cls.trefoil_surgery(SurgeryCoeff.parse(body)),
}


# ---------------------------------------------------------------------------
# Framed links
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FramedLink:
    """A framed link presented by its symmetric integer linking matrix.

    Diagonal entries are framings.  ``tags`` records the smooth knot type
    of each component ("unknot", "rhtrefoil", or "" when unknown).
    """

    matrix: tuple[tuple[int, ...], ...]
    tags: tuple[str, ...] = ()

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in row) for row in self.matrix)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise CalculusError("linking matrix must be square")
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise CalculusError(
                        f"linking matrix not symmetric at ({i},{j})"
                    )
        tags = tuple(self.tags) if self.tags else ("",) * n
        if len(tags) != n:
            raise CalculusError("one tag per component required")
        object.__setattr__(self, "matrix", rows)
        object.__setattr__(self, "tags", tags)

    @classmethod
    def _trusted(cls, matrix, tags):
        """Internal constructor for a matrix built symmetric, as tuples of
        ints with one tag per row; nothing is rechecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "tags", tags)
        return self

    @property
    def size(self) -> int:
        return len(self.matrix)


def linking_matrix(d: ContactDiagram) -> FramedLink:
    """Smooth linking matrix of a normalized diagram.

    Every component must carry coefficient +1 or -1 (run normalize_diagram
    first); diagonal entries are the smooth framings tb + coeff.
    """
    framings = _framings(d)
    rows = d.linking_rows()
    for i, f in enumerate(framings):
        rows[i][i] = f
    tags = tuple(c.smooth_type for c in d.components)
    return FramedLink._trusted(tuple(map(tuple, rows)), tags)


def _framings(d: ContactDiagram) -> list[int]:
    """The smooth framing tb + coefficient of each component, which must
    carry +1 or -1."""
    out = []
    for c in d.components:
        k = c.coeff
        if k is None or k.den != 1 or k.num not in (1, -1):
            raise NormalizationRequiredError(
                f"component {c.cid} has coefficient {k}; "
                "a +1/-1 presentation is required"
            )
        out.append(c.tb + k.num)
    return out


# ---------------------------------------------------------------------------
# Exact integer linear algebra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomologyResult:
    """H1 of a surgery presentation: free rank plus invariant factors.

    ``torsion`` is the increasing divisibility chain (each entry >= 2,
    each dividing the next).
    """

    free_rank: int
    torsion: tuple[int, ...]

    def __post_init__(self):
        tor = tuple(int(t) for t in self.torsion)
        if self.free_rank < 0:
            raise CalculusError("free rank cannot be negative")
        if any(t < 2 for t in tor):
            raise CalculusError("torsion coefficients must be >= 2")
        for a, b in zip(tor, tor[1:]):
            if b % a:
                raise CalculusError("torsion coefficients must form a divisibility chain")
        object.__setattr__(self, "torsion", tor)

    @classmethod
    def _trusted(cls, free_rank, torsion):
        """Internal constructor for a result built valid: a free rank >= 0
        and a divisibility chain of ints >= 2 as a tuple; nothing is
        rechecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", torsion)
        return self

    def order(self) -> int:
        """Order of the group; 0 encodes infinite."""
        if self.free_rank:
            return 0
        out = 1
        for t in self.torsion:
            out *= t
        return out

    def is_cyclic(self) -> bool:
        return self.free_rank + len(self.torsion) <= 1

    def cyclic_order(self) -> int | None:
        """Order if the group is cyclic (0 = infinite cyclic), else None."""
        if not self.is_cyclic():
            return None
        return self.order()


_TRIVIAL = HomologyResult(0, ())


def smith_normal_form(m) -> HomologyResult:
    """Cokernel of an integer matrix, read off the Smith normal form.

    Accepts any rectangular integer matrix (rows x cols), or a list of
    dict rows {column: int}, presenting the quotient Z^rows / column-span;
    returns free rank and invariant factors.
    ``_sparse_phase`` takes every unit pivot and every isolated entry, and
    ``_dense_phase`` reduces what is left.
    """
    a = m.matrix if isinstance(m, FramedLink) else list(m)
    if not a:
        return _TRIVIAL
    pivots, block, _ = _sparse_phase(a)
    factors = [abs(v) for _, _, v in pivots]
    if block:
        factors += _dense_phase(block)
    return HomologyResult._trusted(len(a) - len(factors), _divisibility_chain(factors))


def _sparse_phase(a):
    """Eliminate on unit pivots, then split off isolated entries.

    Rows are dicts {column: nonzero entry}, taken as given or read off a
    dense row, and ``cols`` maps each column to the set of rows with an
    entry there.  Each step takes a live row of at most two entries that
    holds a +/-1 (clearing with it adds at most one entry to each row it
    changes), the first in the order the rows were listed or last
    changed, or failing one the shortest live row that holds a +/-1, the
    first listed among equals; and in it the unit whose column is
    shortest.  It clears that column with the pivot row and drops the
    pivot's row and column: an invariant factor 1.  When no unit is left,
    an entry alone in its row and its column is a direct summand Z/|v|.

    The short rows wait in a queue and the longer ones in a heap keyed by
    (length, index), pushed again after a change only once the queue runs
    dry, and each checked when it is taken: a step costs the entries it
    touches, with no scan of the rows.

    Returns the pivots, (row, column, value) each, in the order taken:
    the units, then the isolated entries.  No row taken after a pivot,
    and no row of the rest, keeps an entry in its column, so in that
    order, rows and columns alike, then the rest's, the eliminated matrix
    is block upper triangular.  The rest is returned as a dense block of
    its nonempty rows and live columns, with (rows, columns) in the
    block's order; with nothing left, as [] and None.
    """
    cols = defaultdict(set)
    if isinstance(a[0], dict):
        rows = list(map(dict, a))
        for i, r in enumerate(rows):
            if 0 in r.values():
                rows[i] = r = {j: v for j, v in r.items() if v}
            for j in r:
                cols[j].add(i)
    else:
        ncols = len(a[0])
        rows = []
        for i, row in enumerate(a):
            if len(row) != ncols:
                raise CalculusError("matrix must be rectangular")
            r = {}
            rows.append(r)
            try:
                for j in compress(count(), row):
                    r[j] = index(row[j])
                    cols[j].add(i)
            except TypeError:
                raise CalculusError("matrix entries must be integers") from None
    # Rows of at most two entries, in the order they were listed or last
    # changed; the longer rows, listed or changed since the heap was last
    # filled; and the heap of those by (length, index).  A pivot's row is
    # set to None.
    short, grown, heap = deque(), set(), []
    for i, r in enumerate(rows):
        if len(r) <= 2:
            short.append(i)
        else:
            grown.add(i)
    pivots = []
    while True:
        p = None
        while short:
            p = short.popleft()
            prow = rows[p]
            if prow is not None and len(prow) <= 2:
                values = prow.values()
                if 1 in values or -1 in values:
                    break
            p = None
        if p is None:
            for i in grown:
                r = rows[i]
                if r is not None and len(r) > 2:
                    heappush(heap, (len(r), i))
            grown.clear()
            while heap:
                n, p = heappop(heap)
                prow = rows[p]
                if prow is not None and len(prow) == n:
                    values = prow.values()
                    if 1 in values or -1 in values:
                        break
                p = None
            else:
                break
        rows[p] = None
        c = None
        for j, v in prow.items():
            on = cols[j]
            on.discard(p)
            if (v == 1 or v == -1) and (c is None or len(on) < shortest):
                c, shortest = j, len(on)
        u = prow.pop(c)
        pivots.append((p, c, u))
        hit = cols.pop(c)
        for i in hit:
            r = rows[i]
            f = r.pop(c) * u
            for j, v in prow.items():
                w = r.get(j, 0) - f * v
                if w:
                    if j not in r:
                        cols[j].add(i)
                    r[j] = w
                else:
                    del r[j]
                    cols[j].discard(i)
            if len(r) <= 2:
                short.append(i)
            else:
                grown.add(i)
    rest = []
    for i, r in enumerate(rows):
        if not r:
            continue
        if len(r) == 1:
            ((j, v),) = r.items()
            if len(cols[j]) == 1:
                pivots.append((i, j, v))
                del cols[j]
                continue
        rest.append(i)
    if not rest:
        return pivots, [], None
    live = sorted(j for j, on in cols.items() if on)
    return pivots, [[rows[i].get(j, 0) for j in live] for i in rest], (rest, live)


def _divisibility_chain(factors):
    """Invariant factors (each >= 2, each dividing the next) of the direct
    sum of the cyclic groups Z/f, f >= 1: Z/a + Z/b = Z/gcd + Z/lcm."""
    chain = []
    for x in factors:
        if x == 1:
            continue
        if not chain or x % chain[-1] == 0:
            chain.append(x)
            continue
        merged = []
        for c in chain:
            g = math.gcd(c, x)
            if g > 1:
                merged.append(g)
            x = x // g * c
        merged.append(x)
        chain = merged
    return tuple(chain)


def _bareiss(rows):
    """Fraction-free elimination of a dense integer matrix (Bareiss 1968):
    each step swaps a row with an entry in the first live column to the
    top and replaces each row below by (pivot * row - entry * top row) /
    previous pivot.  Each entry is then a minor, so every division is
    exact and no entry exceeds Hadamard's bound.

    Returns the rank r, the r x r minor D the last pivot is (1 when
    r = 0) and the sign of the row swaps: a square matrix of full rank
    has determinant sign * D.
    """
    a = list(rows)
    r, prev, sign = 0, 1, 1
    while a and a[0]:
        i = next((i for i, row in enumerate(a) if row[0]), None)
        if i is None:
            a = [row[1:] for row in a]
            continue
        if i:
            a[0], a[i] = a[i], a[0]
            sign = -sign
        top = a[0][1:]
        p = a[0][0]
        a = [[(p * y - row[0] * z) // prev for y, z in zip(row[1:], top)] for row in a[1:]]
        prev, r = p, r + 1
    return r, prev, sign


def _dense_phase(block):
    """The nonzero invariant factors of a dense block, some of them 1.

    With r the rank and D the minor ``_bareiss`` gives, each nonzero
    factor divides the gcd of the r x r minors, so it divides m = 2|D|
    and is less than m (Domich-Kannan-Trotter 1987).  The block is
    reduced modulo m one corner at a time, each corner dividing the rest
    of its block, so the corners' gcds with m form the unique chain of
    the cokernel modulo m: the r factors, then one m a row.
    """
    r, minor, _ = _bareiss(block)
    m = 2 * abs(minor)
    block = [[x % m for x in row] for row in block]
    factors = []
    for _ in range(r):
        _reduce_corner(block, m)
        factors.append(math.gcd(block[0][0], m))
        block = [row[1:] for row in block[1:]]
    return factors


def _reduce_corner(block, m):
    """Make block[0][0] nonzero, the only nonzero entry of its row and
    column and a divisor of everything else, by elementary row and column
    operations modulo m.  The block must hold a nonzero entry."""
    while True:
        top = block[0]
        p = top[0]
        if not p:
            i, j = next((i, j) for i, row in enumerate(block) for j, v in enumerate(row) if v)
            block[0], block[i] = block[i], block[0]
            for row in block:
                row[0], row[j] = row[j], row[0]
            continue
        # Clear the first column; a nonzero remainder becomes the new,
        # strictly smaller pivot.
        for i in range(1, len(block)):
            v = block[i][0]
            if v:
                q = v // p
                block[i] = row = [(x - q * y) % m for x, y in zip(block[i], top)]
                if row[0]:
                    block[0], block[i] = row, top
                    break
        else:
            # The column below the pivot is zero, so clearing the first row
            # by column operations only changes the first row itself.
            for j in range(1, len(top)):
                top[j] %= p
                if top[j]:
                    for row in block:
                        row[0], row[j] = row[j], row[0]
                    break
            else:
                # The pivot must divide the rest of the block.
                bad = p > 1 and next((row for row in block[1:] if any(x % p for x in row)), None)
                if not bad:
                    return
                block[0] = [x + y for x, y in zip(top, bad)]


def h1(obj) -> HomologyResult:
    """First homology of a diagram, framed link, or raw linking matrix.

    A diagram's linking matrix is reduced with its pushoffs' rows slid
    over their parents' rows, and an only child's column over its
    parent's column, as the sparse rows ``_slid_rows`` builds, keyed by
    position: O(n) work for every presentation the package builds.  A
    framed link or a matrix is reduced as given, as in ``det_signed``.
    ``smith_normal_form`` is called through the module, where a tracer
    may have wrapped it.
    """
    if isinstance(obj, ContactDiagram):
        obj = _slid_rows(obj)
    return smith_normal_form(obj)


def _slid_rows(d: ContactDiagram) -> list[dict[int, int]]:
    """The linking matrix of ``d``, framings on the diagonal, with each
    pushoff's row minus its parent's row, and then each only child's
    column minus its parent's column: one dict row per position, keyed by
    the positions of the columns.

    A pushoff's parent sits at an earlier position; an only child is its
    parent's one child.  With M the linking matrix, p(i) the parent of a
    pushoff i, L = I - sum E[i][p(i)] over the pushoffs and
    U = I - sum E[p(j)][j] over the only children, the rows
    are S' = L M U.  L is lower and U upper unitriangular, so the cokernel
    is that of M, whatever linkings the diagram records.

    Row i of D = L M below and on the diagonal is short: b_i - f_p(i) at
    p(i), f_i - b_i at i (f a framing, b_i = R_i[p(i)] the frozen parent
    linking, R_i row i's stored form) and R_i's other entries, or, for a
    root knot, R_i and f_i.  S'[i][j] = D[i][j] - D[i][p(j)] for an only
    child j, so row i of S' up to its diagonal is row i of D
    with each entry v at y less v at y's only child, when that is at most
    i.  Column j of S' above the diagonal:

    * for an only child j, and for a root knot j, it is
      E[j][i] - E[j][p(i)], E the transpose of what row j of D (or of M)
      holds below the diagonal: each such entry v at x, and -v at every
      child of x before j;
    * for a pushoff j with siblings it is column j of D, which is
      column l = p(j) of D above l, copied; -b_l at l when l is a
      pushoff; b_i - b_j at each earlier child i of l, grouped by b_i so
      that a group with b_i = b_j costs nothing; row i's stored entry at l
      for every other row i between l and j that has one; then R_j's
      entries as in the first case, and b_j at l.  Column l of D is
      column l of S' unless l is itself an only child, when
      ``_column_of_d`` adds up the columns of S' along l's chain of only
      children; such chains never overlap, so each knot is summed once.

    The work is the number of nonzero entries plus the stored entries: at
    most 4 a knot in the presentations the package builds, nested
    (-1)-chains included, where the slid rows are tridiagonal.  Raises
    NormalizationRequiredError unless every coefficient is +1 or -1.
    """
    framings = _framings(d)
    pos, comps, links = d._pos, d.components, d._links
    last = {c.parent: j for j, c in enumerate(comps)}  # id -> its last child
    only = {}  # position -> its only child, once that is seen
    chained = set()  # the only children seen
    rows, cols = [], []  # cols[j]: column j of S' above the diagonal
    frozen = []  # each row's frozen parent linking, None for a root's
    # Filled in after each column, so they hold only earlier rows.
    kids = {}  # position -> {b: its children with parent linking b}
    named = {}  # z -> the rows after z, z's children aside, storing an entry at z
    full = {}  # only child with more children -> its column of D above it
    for j, (c, row) in enumerate(zip(comps, links)):
        parent = c.parent
        if parent is not None:
            l = pos[parent]
            bj = row.get(parent, 0)
            dl = bj - framings[l]
            group = kids.get(l)
            if group is None and last[parent] == j:
                only[l] = j
                chained.add(j)
                r = {l: dl, j: framings[j] - bj - dl}
                col = {l: dl}
            else:
                r = {l: dl, j: framings[j] - bj}
                if l not in chained:
                    col = dict(cols[l])
                elif l in full:
                    col = dict(full[l])
                else:
                    full[l] = _column_of_d(d, l, chained, cols, framings, frozen, named)
                    col = dict(full[l])
                bl = frozen[l]
                if bl is not None:
                    col[l] = col.get(l, 0) - bl
                if group is not None:
                    for b, members in group.items():
                        if b != bj:
                            for i in members:
                                col[i] = col.get(i, 0) + b - bj
                if l in named:
                    for i in named[l]:
                        col[i] = col.get(i, 0) + links[i][parent]
                col[l] = col.get(l, 0) + bj
            if group is None:
                kids[l] = {bj: [j]}
            elif bj in group:
                group[bj].append(j)
            else:
                group[bj] = [j]
        else:
            l = bj = None
            col, r = {}, {j: framings[j]}
        if len(row) > (parent in row):
            for k, v in row.items():
                if k == parent:
                    continue
                x = pos[k]
                r[x] = r.get(x, 0) + v
                if x in only:
                    y = only[x]
                    r[y] = r.get(y, 0) - v
                named.setdefault(x, []).append(j)
                col[x] = col.get(x, 0) + v
                if x in kids:
                    for members in kids[x].values():
                        for i in members:
                            col[i] = col.get(i, 0) - v
        if 0 in col.values():
            col = {i: v for i, v in col.items() if v}
        for i, v in col.items():
            rows[i][j] = v
        frozen.append(bj)
        rows.append(r)
        cols.append(col)
    return rows


def _column_of_d(d, l, chained, cols, framings, frozen, named):
    """Column l of D = L M above the diagonal, for an only child l, from
    the columns of S' = D U built so far (``_slid_rows``'s names): column
    l of D is column l of S' plus column p(l) of D, which is column p(l)
    above p(l), D[p(l)][p(l)] and the stored entries at p(l) of the rows
    between p(l) and l (p(l) has no other child); so walk up l's
    chain of only children and add the columns back down."""
    pos, comps, links = d._pos, d.components, d._links
    chain = []
    while l in chained:
        chain.append(l)
        l = pos[comps[l].parent]
    col = dict(cols[l])
    for v in reversed(chain):
        q = pos[comps[v].parent]
        col[q] = col.get(q, 0) + framings[q] - (frozen[q] or 0)
        for i in named.get(q, ()):
            if i >= v:
                break
            col[i] = col.get(i, 0) + links[i][comps[q].cid]
        for i, e in cols[v].items():
            col[i] = col.get(i, 0) + e
    return col


def det_signed(m) -> int:
    """Exact signed determinant of the linking matrix of a diagram, a
    framed link or a square integer matrix.

    A diagram is read as the rows ``_slid_rows`` builds, L M U with L and
    U unitriangular, so det M.  In ``_sparse_phase``'s pivot order, then
    the rest's, the eliminated matrix is block upper triangular: det is
    the sign of that order times the pivots' product times det(rest),
    sign * D from ``_bareiss`` when the rest has full rank, else 0.
    """
    if isinstance(m, ContactDiagram):
        a = _slid_rows(m)
    else:
        a = m.matrix if isinstance(m, FramedLink) else list(m)
        if any(len(row) != len(a) for row in a):
            raise CalculusError("determinant needs a square matrix")
    if not a:
        return 1
    pivots, block, order = _sparse_phase(a)
    n = len(a)
    if len(pivots) + len(block) < n:  # a row eliminated to zero
        return 0
    value = math.prod(v for _, _, v in pivots)
    perm = {i: j for i, j, _ in pivots}  # row -> its column on the diagonal
    if block:
        r, minor, sign = _bareiss(block)
        if r < len(block):
            return 0
        value *= sign * minor
        perm.update(zip(*order))
    # The sign of perm: -1 to the number of its elements less its cycles.
    parity = n
    while perm:
        start, i = perm.popitem()
        while i != start:
            i = perm.pop(i)
        parity -= 1
    return -value if parity % 2 else value


# ---------------------------------------------------------------------------
# Cross-checks
# ---------------------------------------------------------------------------


def triangle_det_check(det_a: int, det_b: int, det_c: int) -> bool:
    """Determinant compatibility of three surgery-related presentations:
    the third value must be |second - first| or second + first."""
    return det_c == abs(det_b - det_a) or det_c == det_b + det_a
