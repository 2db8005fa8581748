"""Contact surgery diagrams on Legendrian unknots, right-handed trefoils
and their contact-framed pushoffs.

Conventions
-----------

* Components carry Thurston-Bennequin and rotation numbers and an optional
  exact surgery coefficient (``None`` = auxiliary knot, not surgered).
  Construction enforces the Bennequin bound for the component's smooth knot
  type (tb + |rot| <= -1 for unknots, <= 1 for right trefoils) and rejects
  coefficient 0 outright, since a 0-coefficient torus has no tight extension.

* A contact pushoff links its parent ``tb(parent)`` times and copies the
  parent's linking with every other component.  Linking numbers are recorded
  eagerly at creation time and never rewritten: stabilizing the parent later
  changes the parent's tb but not the recorded linkings.  Those frozen
  records are what later justify cancellations and reparenting.

* Stabilization lowers tb by one and moves rot by +/-1; it never changes
  linking numbers.

* The smooth surgery framing of a surgered component is tb + coefficient
  (infinite when the contact coefficient is infinite).

Diagrams are immutable; every operation returns a fresh diagram.  Component
ids are strings; freshly created components get ids "c1", "c2", ... in
creation order, and the component tuple preserves creation order, which
makes the rewrite scans below deterministic.

Storage
-------

Linking numbers are kept by position in lower-triangular rows: row i is a
tuple of i integers, lk(component i, component j) for j < i.  Rows are
append-only and shared: a diagram made by a move reuses every row of its
source that the move leaves alone.  One id map, ``_pos``, gives each
component's position, and ``component(cid)`` reads the component tuple at
it.  A move constructs every new or changed component exactly once, with
its final tb, rot and coefficient, so each goes through the component
checks once.  With n components:

* adding an unknot or a trefoil appends a row of zeros, O(n);
* a contact pushoff appends one row read off its parent's row and column,
  O(n), and is created already carrying its coefficient (+1 for
  ``plus_one_surgery``);
* ``convert_positive`` appends its k unit pushoffs in one move: row j is
  the first pushoff's row followed by j entries tb(parent), O(k (n + k))
  for the rows and one copy of the id map;
* ``convert_negative`` appends its whole (-1)-chain in one move, each
  chain knot created stabilized and at -1, O(m (n + m)) for m knots;
* stabilizing or changing a coefficient shares all rows and the id map,
  O(n) for the component tuple;
* removing component i keeps rows 0..i-1, slices entry i out of each
  later row, and rebuilds the id map; it reads the linkings of the
  removed knot's children by position, wherever they sit, and constructs
  each reparented or demoted child once;
* ``linking`` is one tuple lookup, and ``linking_rows`` builds the full
  symmetric matrix in O(n^2), which ``linking_matrix`` and the JSON form
  read instead of asking for pairs one by one;
* ``diagram_iso`` compares two diagrams by position, rows tuple against
  tuple, in O(n^2) with no search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, zip_longest

from .errors import (
    CalculusError,
    ExcludedSlopeError,
    NoTightExtensionError,
)
from .rationals import (
    SurgeryCoeff,
    coeff as _coerce_coeff,
    neg_continued_fraction,
    pushoff_coeff_from_slope,
    residual_coeff,
    split_count,
)

UNKNOT = "unknot"
RH_TREFOIL = "rhtrefoil"
PUSHOFF = "pushoff"

_BENNEQUIN_BOUND = {UNKNOT: -1, RH_TREFOIL: 1}
_PLUS_ONE = SurgeryCoeff(1)
_MINUS_ONE = SurgeryCoeff(-1)


@dataclass(frozen=True)
class LegendrianComponent:
    """One knot in a contact surgery diagram.

    ``kind`` is "unknot", "rhtrefoil" or "pushoff"; a pushoff names its
    ``parent`` and inherits the parent's smooth knot type, kept in
    ``smooth_type`` so the type survives even if the parent is later
    removed from the diagram.
    """

    cid: str
    kind: str
    parent: str | None
    smooth_type: str
    tb: int
    rot: int
    coeff: SurgeryCoeff | None

    def __post_init__(self):
        if self.kind not in (UNKNOT, RH_TREFOIL, PUSHOFF):
            raise CalculusError(f"unknown component kind {self.kind!r}")
        if self.smooth_type not in (UNKNOT, RH_TREFOIL):
            raise CalculusError(f"unknown smooth type {self.smooth_type!r}")
        if self.kind == PUSHOFF:
            if not self.parent:
                raise CalculusError(f"pushoff {self.cid} must name a parent")
        else:
            if self.parent is not None:
                raise CalculusError(f"{self.kind} {self.cid} cannot have a parent")
            if self.smooth_type != self.kind:
                raise CalculusError(
                    f"{self.kind} {self.cid} has mismatched smooth type"
                )
        if not isinstance(self.tb, int) or not isinstance(self.rot, int):
            raise CalculusError("tb and rot must be integers")
        bound = _BENNEQUIN_BOUND[self.smooth_type]
        if self.tb + abs(self.rot) > bound:
            raise CalculusError(
                f"component {self.cid}: tb + |rot| = {self.tb + abs(self.rot)} "
                f"exceeds the Bennequin bound {bound} for a {self.smooth_type}"
            )
        if self.coeff is not None:
            if not isinstance(self.coeff, SurgeryCoeff):
                raise CalculusError("coefficient must be a SurgeryCoeff or None")
            if not self.coeff.is_infinite and self.coeff.num == 0:
                raise NoTightExtensionError(
                    f"component {self.cid}: contact coefficient 0 admits "
                    "no tight extension"
                )


class ContactDiagram:
    """An immutable contact surgery diagram.

    ``components`` is a tuple in creation order and ``_pos`` maps each id
    to its position, the one id map: ``component(cid)`` is
    ``components[_pos[cid]]``.  ``_rows[i][j]`` (j < i) is
    lk(components[i], components[j]).  Rows and the id map are never
    rewritten, and are shared with every diagram a move makes from this
    one that leaves them alone; the Storage section of the module
    docstring gives each move's cost.

    The constructor refuses a duplicate id, a pushoff whose parent is
    missing or is the pushoff itself, and a bad linking pair.  A parent
    listed after its child, and a parent cycle of two or more knots, are
    accepted.
    """

    __slots__ = ("components", "_pos", "_rows")

    def __init__(self, components=(), linkings=None):
        comps = tuple(components)
        pos = {}
        for i, c in enumerate(comps):
            if not isinstance(c, LegendrianComponent):
                raise CalculusError("diagram components must be LegendrianComponent")
            if c.cid in pos:
                raise CalculusError(f"duplicate component id {c.cid!r}")
            pos[c.cid] = i
        for c in comps:
            if c.kind == PUSHOFF and c.parent not in pos:
                raise CalculusError(
                    f"pushoff {c.cid} names missing parent {c.parent!r}"
                )
            if c.parent == c.cid:
                raise CalculusError(f"pushoff {c.cid} names itself as its parent")
        rows = [[0] * i for i in range(len(comps))]
        for pair, value in (linkings or {}).items():
            a, b = tuple(pair)
            if a == b or a not in pos or b not in pos:
                raise CalculusError(f"bad linking pair {(a, b)!r}")
            if not isinstance(value, int):
                raise CalculusError(f"linking number for {(a, b)!r} must be an int")
            if value:
                i, j = pos[a], pos[b]
                if i > j:
                    rows[i][j] = value
                else:
                    rows[j][i] = value
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "_pos", pos)
        object.__setattr__(self, "_rows", tuple(map(tuple, rows)))

    @classmethod
    def _trusted(cls, components, rows, pos):
        """Internal constructor for moves that preserve the invariants.

        ``components`` and ``rows`` must be tuples, row i holding i ints;
        ``pos`` the matching id map; nothing is rechecked.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "_pos", pos)
        object.__setattr__(self, "_rows", rows)
        return self

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.components)

    def __contains__(self, cid: str) -> bool:
        return cid in self._pos

    def ids(self) -> tuple[str, ...]:
        return tuple(c.cid for c in self.components)

    def component(self, cid: str) -> LegendrianComponent:
        try:
            return self.components[self._pos[cid]]
        except KeyError:
            raise CalculusError(f"no component {cid!r} in diagram") from None

    def linking(self, a: str, b: str) -> int:
        if a not in self._pos or b not in self._pos:
            raise CalculusError(f"no such components {a!r}, {b!r}")
        if a == b:
            raise CalculusError("self-linking is not stored; use smooth_framing")
        i, j = self._pos[a], self._pos[b]
        return self._rows[i][j] if j < i else self._rows[j][i]

    def linking_rows(self) -> list[list[int]]:
        """The full symmetric linking matrix by position, 0 on the diagonal;
        fresh lists the caller may overwrite."""
        # Column i below the diagonal is entry i of the transposed rows.
        rows = self._rows
        return [
            [*row, 0, *column[i + 1:]]
            for i, (row, column) in enumerate(zip_longest(rows, zip_longest(*rows), fillvalue=()))
        ]

    def linking_pairs(self) -> dict[frozenset, int]:
        ids = self.ids()
        return {
            frozenset((ids[i], ids[j])): value
            for i, row in enumerate(self._rows)
            for j, value in enumerate(row)
            if value
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, ContactDiagram):
            return NotImplemented
        return self.components == other.components and self._rows == other._rows

    def __hash__(self):
        return hash((self.components, self._rows))

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{c.cid}:{c.smooth_type}(tb={c.tb},rot={c.rot},coeff={c.coeff})"
            for c in self.components
        )
        return f"ContactDiagram[{parts}]"


# ---------------------------------------------------------------------------
# Elementary construction moves
# ---------------------------------------------------------------------------


def empty_diagram() -> ContactDiagram:
    return ContactDiagram()


def _fresh_ids(d: ContactDiagram):
    """Ids for components appended to d, in creation order: "c<n>" for n
    from len(d) + 1 up, skipping every id d already holds."""
    n = len(d.components)
    while True:
        n += 1
        cid = f"c{n}"
        if cid not in d._pos:
            yield cid


def _appended(d, comps, rows):
    """Append ``comps`` in order, row j holding comps[j]'s linking with
    every component before it."""
    pos = dict(d._pos)
    for c in comps:
        if c.cid in pos:
            raise CalculusError(f"duplicate component id {c.cid!r}")
        if c.kind == PUSHOFF and c.parent not in pos:
            raise CalculusError(f"pushoff {c.cid} names missing parent {c.parent!r}")
        pos[c.cid] = len(pos)
    return ContactDiagram._trusted(
        d.components + tuple(comps), d._rows + tuple(rows), pos
    )


def add_unknot(d, tb: int = -1, rot: int = 0, coeff=None):
    """Append a standard Legendrian unknot; returns (diagram, new id)."""
    cid = next(_fresh_ids(d))
    c = LegendrianComponent(cid, UNKNOT, None, UNKNOT, tb, rot, _opt_coeff(coeff))
    return _appended(d, (c,), ((0,) * len(d),)), cid


def add_trefoil(d, tb: int = 1, rot: int = 0, coeff=None):
    """Append a Legendrian right-handed trefoil; returns (diagram, new id)."""
    cid = next(_fresh_ids(d))
    c = LegendrianComponent(cid, RH_TREFOIL, None, RH_TREFOIL, tb, rot, _opt_coeff(coeff))
    return _appended(d, (c,), ((0,) * len(d),)), cid


def _opt_coeff(value):
    return None if value is None else _coerce_coeff(value)


def _restated(c, tb, rot, coeff):
    """Component c with new tb, rot and coefficient, checked as a new one."""
    return LegendrianComponent(c.cid, c.kind, c.parent, c.smooth_type, tb, rot, coeff)


def _with_replaced(d, comp):
    i = d._pos[comp.cid]
    comps = d.components[:i] + (comp,) + d.components[i + 1:]
    return ContactDiagram._trusted(comps, d._rows, d._pos)


def set_coeff(d, cid: str, coeff) -> ContactDiagram:
    """Return the diagram with cid's surgery coefficient replaced."""
    c = d.component(cid)
    return _with_replaced(d, _restated(c, c.tb, c.rot, _opt_coeff(coeff)))


def stabilize(d, cid: str, sign: int) -> ContactDiagram:
    """Stabilize a component: tb drops by one, rot moves by sign (+1/-1)."""
    if sign not in (1, -1):
        raise CalculusError(f"stabilization sign must be +1 or -1, got {sign!r}")
    c = d.component(cid)
    return _with_replaced(d, _restated(c, c.tb - 1, c.rot + sign, c.coeff))


def _pushoff_row(d, cid):
    """The row of a new pushoff of cid: cid's linkings, then tb(cid) for
    cid itself."""
    i, rows = d._pos[cid], d._rows
    return rows[i] + (d.components[i].tb,) + tuple(r[i] for r in rows[i + 1:])


def contact_pushoff(d, cid: str, coeff=None):
    """Append a contact-framed pushoff of cid carrying ``coeff`` (None: no
    surgery); returns (diagram, new id).

    The pushoff starts with the parent's current tb and rot, links the
    parent tb(parent) times and copies the parent's linking with every
    other component, all recorded immediately.
    """
    parent = d.component(cid)
    new_id = next(_fresh_ids(d))
    comp = LegendrianComponent(
        new_id, PUSHOFF, cid, parent.smooth_type, parent.tb, parent.rot, _opt_coeff(coeff)
    )
    return _appended(d, (comp,), (_pushoff_row(d, cid),)), new_id


def _unit_pushoffs(d, cid, k):
    """Append k contact pushoffs of cid, each carrying +1, in one move.

    Each copies cid's linkings and links cid and every earlier one of them
    tb(cid) times, so row j is the first one's row followed by j entries
    tb(cid); the ids are the ones k successive ``contact_pushoff`` calls
    would give."""
    parent, row = d.component(cid), _pushoff_row(d, cid)
    pushoffs = [
        LegendrianComponent(new, PUSHOFF, cid, parent.smooth_type, parent.tb, parent.rot, _PLUS_ONE)
        for new in islice(_fresh_ids(d), k)
    ]
    return _appended(d, pushoffs, [row + (parent.tb,) * j for j in range(k)])


def plus_one_surgery(d, witness: str) -> ContactDiagram:
    """Contact (+1)-surgery on the fresh knot named by ``witness``:
    "unknot" for a standard (tb -1, rot 0) Legendrian unknot,
    "pushoff:<cid>" for a contact pushoff of component cid, or
    "cancel:<cid>" for a pushoff of the (-1)-component cid, which then
    cancels against it (Ding-Geiges-Stipsicz), leaving d without cid.
    The surgered knot is created carrying +1."""
    if witness == "unknot":
        return add_unknot(d, coeff=_PLUS_ONE)[0]
    if witness.startswith("pushoff:"):
        return contact_pushoff(d, witness[len("pushoff:"):], _PLUS_ONE)[0]
    if witness.startswith("cancel:"):
        k = d.component(witness[len("cancel:"):])
        if k.coeff != _MINUS_ONE:
            raise CalculusError(f"component {k.cid} carries {k.coeff}, not -1")
        return remove_component(d, k.cid)
    raise CalculusError(f"unknown witness {witness!r}")


def smooth_framing(comp: LegendrianComponent) -> SurgeryCoeff:
    """Smooth surgery coefficient tb + contact coefficient of a component."""
    if comp.coeff is None:
        raise CalculusError(f"component {comp.cid} carries no surgery")
    return comp.tb + comp.coeff


def remove_component(d, cid: str) -> ContactDiagram:
    """Drop a component, repairing pushoff parent references.

    A child pushoff C of the removed component X, before or after X in the
    diagram, is reparented to X's own parent Y when the recorded linkings
    prove C is still an unstabilized contact pushoff of Y as it sits today:

        lk(C, X) == lk(X, Y)   (X was not stabilized between the creations)
        tb(C)    == lk(C, X)   (C was never stabilized)
        tb(Y)    == lk(X, Y)   (Y unchanged since X was created)

    Otherwise (and always when X is a root knot) C is demoted to a root of
    its recorded smooth type, keeping every linking number it already has.
    """
    dead = d.component(cid)
    grandparent = dead.parent
    i, rows = d._pos[cid], d._rows
    new_comps = []
    for j, c in enumerate(d.components):
        if j == i:
            continue
        if c.parent == cid:
            link = rows[j][i] if j > i else rows[i][j]
            if (
                grandparent is not None
                and link == d.linking(cid, grandparent) == c.tb
                and d.component(grandparent).tb == link
            ):
                c = LegendrianComponent(
                    c.cid, PUSHOFF, grandparent, c.smooth_type, c.tb, c.rot, c.coeff
                )
            else:
                c = LegendrianComponent(
                    c.cid, c.smooth_type, None, c.smooth_type, c.tb, c.rot, c.coeff
                )
        new_comps.append(c)
    rows = rows[:i] + tuple(r[:i] + r[i + 1:] for r in rows[i + 1:])
    return ContactDiagram._trusted(
        tuple(new_comps), rows, {c.cid: k for k, c in enumerate(new_comps)}
    )


# ---------------------------------------------------------------------------
# Conversion of rational coefficients to +/-1 presentations
# ---------------------------------------------------------------------------


def convert_negative(d, cid: str, choice=None) -> ContactDiagram:
    """Replace a negative rational surgery on cid by a (-1)-surgery chain.

    Expanding the coefficient as a negative continued fraction
    (a_1, ..., a_m), the component itself is stabilized |a_1 + 1| times and
    set to coefficient -1; then for each later a_i a contact pushoff of the
    previous chain knot is appended, stabilized |a_i + 2| times, and set to
    -1.  ``choice`` optionally fixes the stabilization signs: a sequence of
    m sign vectors, the i-th of length |a_i + (1 if i == 1 else 2)|.
    Defaults to all negative stabilizations.
    """
    comp = d.component(cid)
    if comp.coeff is None or comp.coeff.is_infinite or comp.coeff.num >= 0:
        raise CalculusError(
            f"component {cid} needs a finite negative coefficient, got {comp.coeff}"
        )
    cf = neg_continued_fraction(comp.coeff)
    (count, shift), *rest = _check_choice(choice, cf.stabilization_counts(), cid)
    # Each chain knot is created with all its stabilizations applied: each
    # lowers tb + |rot| by 0 or 2, so the Bennequin check on the final
    # values covers them.
    knot = _restated(comp, comp.tb - count, comp.rot + shift, _MINUS_ONE)
    d = _with_replaced(d, knot)
    chain, rows, row = [], [], _pushoff_row(d, cid)
    for (count, shift), new in zip(rest, _fresh_ids(d)):
        # A pushoff of the previous chain knot.
        knot = LegendrianComponent(
            new, PUSHOFF, knot.cid, knot.smooth_type,
            knot.tb - count, knot.rot + shift, _MINUS_ONE,
        )
        chain.append(knot)
        rows.append(row)
        # The last knot has no later rows, so a pushoff of it links every
        # earlier knot as it does, and it tb(it) times.
        row = row + (knot.tb,)
    return _appended(d, chain, rows)


def _check_choice(choice, counts, cid):
    """(stabilization count, rotation shift) per chain knot: all negative
    by default, else read off the given sign vectors."""
    if choice is None:
        return [(n, -n) for n in counts]
    vectors = [list(v) for v in choice]
    if len(vectors) != len(counts):
        raise CalculusError(
            f"component {cid}: {len(counts)} sign vectors needed, got {len(vectors)}"
        )
    for i, (vec, n) in enumerate(zip(vectors, counts)):
        if len(vec) != n or any(s not in (1, -1) for s in vec):
            raise CalculusError(
                f"component {cid}: sign vector {i} must hold {n} entries of +/-1"
            )
    return [(len(v), sum(v)) for v in vectors]


def convert_positive(d, cid: str, k: int) -> ContactDiagram:
    """Split a positive rational surgery on cid into k unit (+1) pushoffs.

    Appends k contact pushoffs of cid, each with coefficient +1, in one
    move, and leaves the residual coefficient rp/(1 - k*rp) on cid itself;
    if the residual is infinite the component's surgery becomes trivial and
    it is removed.
    """
    comp = d.component(cid)
    if comp.coeff is None or comp.coeff.is_infinite or comp.coeff.num <= 0:
        raise CalculusError(
            f"component {cid} needs a finite positive coefficient, got {comp.coeff}"
        )
    if not isinstance(k, int) or k < 1:
        raise CalculusError(f"pushoff count must be a positive integer, got {k!r}")
    residual = residual_coeff(comp.coeff, k)
    d = _unit_pushoffs(d, cid, k)
    if residual.is_infinite:
        return remove_component(d, cid)
    return _with_replaced(d, _restated(comp, comp.tb, comp.rot, residual))


def normalize_diagram(d, choices=None) -> ContactDiagram:
    """Rewrite every surgery coefficient to +1 or -1.

    Infinite coefficients denote trivial surgeries and their components are
    dropped first.  Positive coefficients other than +1 are split into unit
    (+1) pushoffs — exactly 1/k is removed outright with k pushoffs, anything
    else splits minimally and leaves a negative residual — and negative
    coefficients other than -1 are converted to (-1)-chains.  ``choices``
    optionally maps component ids to stabilization sign vectors for their
    chains.  Auxiliary (unsurgered) components pass through untouched.
    """
    choices = dict(choices or {})
    for cid in d.ids():
        c = d.component(cid)
        if c.coeff is not None and c.coeff.is_infinite:
            d = remove_component(d, cid)
    # Every coefficient left is finite, so its sign is its numerator's.
    for cid in d.ids():
        c = d.component(cid)
        if c.coeff is not None and c.coeff.num > 0 and c.coeff != _PLUS_ONE:
            d = convert_positive(d, cid, split_count(c.coeff))
    for cid in d.ids():
        if cid not in d:
            continue
        c = d.component(cid)
        if c.coeff is not None and c.coeff.num < 0 and c.coeff != _MINUS_ONE:
            d = convert_negative(d, cid, choices.get(cid))
    for c in d.components:
        assert c.coeff in (None, _PLUS_ONE, _MINUS_ONE)
    return d


def count_presentations(r) -> int:
    """Number of distinct +/-1 presentations of an r-surgery on one knot.

    Each chain knot with s stabilizations contributes a factor s + 1 (the
    choice of rotation split); slopes that convert without stabilizing
    (inf, +/-1, positive unit fractions) have exactly one presentation.
    """
    r = _coerce_coeff(r)
    if not r.is_infinite and r.num == 0:
        raise NoTightExtensionError(
            "contact coefficient 0 admits no tight extension"
        )
    if not r.is_infinite and r > 0:
        r = residual_coeff(r, split_count(r))
    if r.is_infinite:
        return 1
    counts = neg_continued_fraction(r).stabilization_counts()
    return math.prod(s + 1 for s in counts)


# ---------------------------------------------------------------------------
# Cancellation
# ---------------------------------------------------------------------------


def cancel_pushoff_pairs(d) -> ContactDiagram:
    """Repeatedly cancel (-1)-knots against their unstabilized (+1) pushoffs.

    A pair cancels when P is a (+1) contact pushoff of K, K carries -1, and
    neither has been stabilized since P was created — witnessed by
    tb(P) == tb(K) == lk(P, K).  Both components are removed (pushoff first,
    so its children can reparent through it); the scan restarts until no
    pair is left.  Cancelling such a pair does not change the presented
    contact manifold.
    """
    while True:
        pair = _find_cancelling_pair(d)
        if pair is None:
            return d
        kid, pid = pair
        d = remove_component(d, pid)
        d = remove_component(d, kid)


def _find_cancelling_pair(d):
    for k in d.components:
        if k.coeff != _MINUS_ONE:
            continue
        for p in d.components:
            if (
                p.kind == PUSHOFF
                and p.parent == k.cid
                and p.coeff == _PLUS_ONE
                and p.tb == k.tb == d.linking(p.cid, k.cid)
            ):
                assert p.rot == k.rot
                return k.cid, p.cid
    return None


# ---------------------------------------------------------------------------
# The standard generators
# ---------------------------------------------------------------------------


def tower_diagram(k: int) -> ContactDiagram:
    """Trefoil with coefficient -1 plus k unit (+1) contact pushoffs.

    Stage k of the tower; its first homology is cyclic of order k, and
    stage 1 cancels to the empty diagram.
    """
    if not isinstance(k, int) or k < 1:
        raise CalculusError(f"tower stage must be a positive integer, got {k!r}")
    d, tid = add_trefoil(empty_diagram(), coeff=_MINUS_ONE)
    return _unit_pushoffs(d, tid, k)


def trefoil_surgery_diagram(r) -> ContactDiagram:
    """Two-component presentation of r-surgery on the right-handed trefoil:
    the trefoil with contact coefficient -1 and a contact pushoff carrying
    the companion coefficient (r - 1)/r.  When that coefficient is infinite
    the pushoff carries no surgery and is dropped.  Slope 1 is excluded.
    """
    r = _coerce_coeff(r)
    if r == 1:
        raise ExcludedSlopeError(
            "surgery coefficient 1 is excluded: the companion coefficient "
            "becomes 0, which admits no tight extension"
        )
    rp = pushoff_coeff_from_slope(r)
    d, tid = add_trefoil(empty_diagram(), coeff=_MINUS_ONE)
    if rp.is_infinite:
        return d
    return contact_pushoff(d, tid, rp)[0]


# ---------------------------------------------------------------------------
# Comparing presentations
# ---------------------------------------------------------------------------


def diagram_iso(a: ContactDiagram, b: ContactDiagram) -> bool:
    """Positional isomorphism: component i of ``a`` matches component i
    of ``b`` in kind, smooth type, tb, rot and coefficient, the parents
    sit at the same positions, and the linking rows are equal.  Ids may
    differ.  O(n^2) with no search.  Equality by position is a special
    case of isomorphism, so ``True`` proves the diagrams isomorphic, but
    ``False`` does not prove them non-isomorphic: a relabelling that also
    reorders the components is not found.  The verifier runs it on
    presentations a certificate supplies (``same_diagram``,
    ``cancel_equivalent``)."""
    return (
        a._rows == b._rows
        and _parents(a) == _parents(b)
        and all(
            (x.kind, x.smooth_type, x.tb, x.rot, x.coeff)
            == (y.kind, y.smooth_type, y.tb, y.rot, y.coeff)
            for x, y in zip(a.components, b.components)
        )
    )


def _parents(d):
    """Position of each component's parent, None for a root."""
    return [None if c.parent is None else d._pos[c.parent] for c in d.components]
