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
source that the move leaves alone.  With n components:

* adding an unknot or a trefoil appends a row of zeros, O(n);
* a contact pushoff appends one row read off its parent's row and column,
  O(n);
* stabilizing or changing a coefficient shares all rows, O(n) for the
  component tuple and id maps;
* removing component i keeps rows 0..i-1 and slices entry i out of each
  later row;
* ``linking`` is one tuple lookup, and ``linking_rows`` builds the full
  symmetric matrix in O(n^2), which ``diagram_iso``, ``linking_matrix``
  and the JSON form read instead of asking for pairs one by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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

    ``components`` is a tuple in creation order; ``_index`` maps each id
    to its component and ``_pos`` to its position.  ``_rows[i][j]``
    (j < i) is lk(components[i], components[j]).  Rows are tuples, never
    rewritten, and shared with every diagram a move makes from this one;
    the Storage section of the module docstring gives each move's cost.
    """

    __slots__ = ("components", "_index", "_pos", "_rows")

    def __init__(self, components=(), linkings=None):
        comps = tuple(components)
        index = {}
        for c in comps:
            if not isinstance(c, LegendrianComponent):
                raise CalculusError("diagram components must be LegendrianComponent")
            if c.cid in index:
                raise CalculusError(f"duplicate component id {c.cid!r}")
            index[c.cid] = c
        for c in comps:
            if c.kind == PUSHOFF and c.parent not in index:
                raise CalculusError(
                    f"pushoff {c.cid} names missing parent {c.parent!r}"
                )
        pos = {c.cid: i for i, c in enumerate(comps)}
        rows = [[0] * i for i in range(len(comps))]
        for pair, value in (linkings or {}).items():
            a, b = tuple(pair)
            if a == b or a not in index or b not in index:
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
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_pos", pos)
        object.__setattr__(self, "_rows", tuple(map(tuple, rows)))

    @classmethod
    def _trusted(cls, components, rows, index, pos):
        """Internal constructor for moves that preserve the invariants.

        ``components`` and ``rows`` must be tuples, row i holding i ints;
        ``index`` and ``pos`` the matching id maps; nothing is rechecked.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_pos", pos)
        object.__setattr__(self, "_rows", rows)
        return self

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.components)

    def __contains__(self, cid: str) -> bool:
        return cid in self._index

    def ids(self) -> tuple[str, ...]:
        return tuple(c.cid for c in self.components)

    def component(self, cid: str) -> LegendrianComponent:
        try:
            return self._index[cid]
        except KeyError:
            raise CalculusError(f"no component {cid!r} in diagram") from None

    def linking(self, a: str, b: str) -> int:
        if a not in self._index or b not in self._index:
            raise CalculusError(f"no such components {a!r}, {b!r}")
        if a == b:
            raise CalculusError("self-linking is not stored; use smooth_framing")
        i, j = self._pos[a], self._pos[b]
        return self._rows[i][j] if j < i else self._rows[j][i]

    def linking_rows(self) -> list[list[int]]:
        """The full symmetric linking matrix by position, 0 on the diagonal;
        fresh lists the caller may overwrite."""
        full = [list(row) + [0] for row in self._rows]
        for row in self._rows:
            for i, value in enumerate(row):
                full[i].append(value)
        return full

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


def _fresh_id(d: ContactDiagram) -> str:
    n = len(d.components) + 1
    while f"c{n}" in d:
        n += 1
    return f"c{n}"


def _with_component(d, comp, row):
    """Append comp with ``row``, its linking with every earlier component."""
    if comp.cid in d._index:
        raise CalculusError(f"duplicate component id {comp.cid!r}")
    if comp.kind == PUSHOFF and comp.parent not in d._index:
        raise CalculusError(f"pushoff {comp.cid} names missing parent {comp.parent!r}")
    index = dict(d._index)
    index[comp.cid] = comp
    pos = dict(d._pos)
    pos[comp.cid] = len(d.components)
    return ContactDiagram._trusted(
        d.components + (comp,), d._rows + (row,), index, pos
    )


def add_unknot(d, tb: int = -1, rot: int = 0, coeff=None):
    """Append a standard Legendrian unknot; returns (diagram, new id)."""
    cid = _fresh_id(d)
    c = LegendrianComponent(cid, UNKNOT, None, UNKNOT, tb, rot, _opt_coeff(coeff))
    return _with_component(d, c, (0,) * len(d)), cid


def add_trefoil(d, tb: int = 1, rot: int = 0, coeff=None):
    """Append a Legendrian right-handed trefoil; returns (diagram, new id)."""
    cid = _fresh_id(d)
    c = LegendrianComponent(cid, RH_TREFOIL, None, RH_TREFOIL, tb, rot, _opt_coeff(coeff))
    return _with_component(d, c, (0,) * len(d)), cid


def _opt_coeff(value):
    return None if value is None else _coerce_coeff(value)


def _with_replaced(d, comp):
    i = d._pos[comp.cid]
    comps = d.components[:i] + (comp,) + d.components[i + 1:]
    index = dict(d._index)
    index[comp.cid] = comp
    return ContactDiagram._trusted(comps, d._rows, index, d._pos)


def set_coeff(d, cid: str, coeff) -> ContactDiagram:
    """Return the diagram with cid's surgery coefficient replaced."""
    return _with_replaced(d, replace(d.component(cid), coeff=_opt_coeff(coeff)))


def stabilize(d, cid: str, sign: int) -> ContactDiagram:
    """Stabilize a component: tb drops by one, rot moves by sign (+1/-1)."""
    if sign not in (1, -1):
        raise CalculusError(f"stabilization sign must be +1 or -1, got {sign!r}")
    old = d.component(cid)
    return _with_replaced(d, replace(old, tb=old.tb - 1, rot=old.rot + sign))


def contact_pushoff(d, cid: str):
    """Append a contact-framed pushoff of cid; returns (diagram, new id).

    The pushoff starts with the parent's current tb and rot, links the
    parent tb(parent) times and copies the parent's linking with every
    other component, all recorded immediately.
    """
    parent = d.component(cid)
    new_id = _fresh_id(d)
    comp = LegendrianComponent(
        new_id, PUSHOFF, cid, parent.smooth_type, parent.tb, parent.rot, None
    )
    i, rows = d._pos[cid], d._rows
    row = rows[i] + (parent.tb,) + tuple(r[i] for r in rows[i + 1:])
    return _with_component(d, comp, row), new_id


def plus_one_surgery(d, witness: str) -> ContactDiagram:
    """Contact (+1)-surgery on the fresh knot named by ``witness``:
    "unknot" for a standard (tb -1, rot 0) Legendrian unknot,
    "pushoff:<cid>" for a contact pushoff of component cid, or
    "cancel:<cid>" for a pushoff of the (-1)-component cid, which then
    cancels against it (Ding-Geiges-Stipsicz), leaving d without cid."""
    if witness == "unknot":
        d, wid = add_unknot(d)
    elif witness.startswith("pushoff:"):
        d, wid = contact_pushoff(d, witness[len("pushoff:"):])
    elif witness.startswith("cancel:"):
        k = d.component(witness[len("cancel:"):])
        if k.coeff != _MINUS_ONE:
            raise CalculusError(f"component {k.cid} carries {k.coeff}, not -1")
        return remove_component(d, k.cid)
    else:
        raise CalculusError(f"unknown witness {witness!r}")
    return set_coeff(d, wid, _PLUS_ONE)


def smooth_framing(comp: LegendrianComponent) -> SurgeryCoeff:
    """Smooth surgery coefficient tb + contact coefficient of a component."""
    if comp.coeff is None:
        raise CalculusError(f"component {comp.cid} carries no surgery")
    return comp.tb + comp.coeff


def remove_component(d, cid: str) -> ContactDiagram:
    """Drop a component, repairing pushoff parent references.

    A child pushoff C of the removed component X is reparented to X's own
    parent Y when the recorded linkings prove C is still an unstabilized
    contact pushoff of Y as it sits today:

        lk(C, X) == lk(X, Y)   (X was not stabilized between the creations)
        tb(C)    == lk(C, X)   (C was never stabilized)
        tb(Y)    == lk(X, Y)   (Y unchanged since X was created)

    Otherwise (and always when X is a root knot) C is demoted to a root of
    its recorded smooth type, keeping every linking number it already has.
    """
    dead = d.component(cid)
    grandparent = dead.parent
    new_comps = []
    for c in d.components:
        if c.cid == cid:
            continue
        if c.kind == PUSHOFF and c.parent == cid:
            if (
                grandparent is not None
                and d.linking(c.cid, cid) == d.linking(cid, grandparent)
                and c.tb == d.linking(c.cid, cid)
                and d.component(grandparent).tb == d.linking(cid, grandparent)
            ):
                c = replace(c, parent=grandparent)
            else:
                c = replace(c, kind=c.smooth_type, parent=None)
        new_comps.append(c)
    i, rows = d._pos[cid], d._rows
    rows = rows[:i] + tuple(r[:i] + r[i + 1:] for r in rows[i + 1:])
    return ContactDiagram._trusted(
        tuple(new_comps),
        rows,
        {c.cid: c for c in new_comps},
        {c.cid: k for k, c in enumerate(new_comps)},
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
    if comp.coeff is None or comp.coeff.is_infinite or comp.coeff >= 0:
        raise CalculusError(
            f"component {cid} needs a finite negative coefficient, got {comp.coeff}"
        )
    cf = neg_continued_fraction(comp.coeff)
    moves = _check_choice(choice, cf.stabilization_counts(), cid)
    cur = cid
    for i, (count, shift) in enumerate(moves):
        if i:
            d, cur = contact_pushoff(d, cur)
        # All of a knot's stabilizations in one move: each lowers tb + |rot|
        # by 0 or 2, so the Bennequin check on the final values covers them.
        c = d.component(cur)
        d = _with_replaced(
            d, replace(c, tb=c.tb - count, rot=c.rot + shift, coeff=_MINUS_ONE)
        )
    return d


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

    Appends k contact pushoffs of cid, each with coefficient +1, and leaves
    the residual coefficient rp/(1 - k*rp) on cid itself; if the residual is
    infinite the component's surgery becomes trivial and it is removed.
    """
    comp = d.component(cid)
    if comp.coeff is None or comp.coeff.is_infinite or comp.coeff <= 0:
        raise CalculusError(
            f"component {cid} needs a finite positive coefficient, got {comp.coeff}"
        )
    if not isinstance(k, int) or k < 1:
        raise CalculusError(f"pushoff count must be a positive integer, got {k!r}")
    residual = residual_coeff(comp.coeff, k)
    for _ in range(k):
        d = plus_one_surgery(d, f"pushoff:{cid}")
    if residual.is_infinite:
        return remove_component(d, cid)
    return set_coeff(d, cid, residual)


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
    for cid in list(d.ids()):
        c = d.component(cid)
        if c.coeff is not None and c.coeff.is_infinite:
            d = remove_component(d, cid)
    for cid in list(d.ids()):
        c = d.component(cid)
        if c.coeff is not None and c.coeff > 0 and c.coeff != 1:
            d = convert_positive(d, cid, split_count(c.coeff))
    for cid in list(d.ids()):
        if cid not in d:
            continue
        c = d.component(cid)
        if c.coeff is not None and c.coeff < 0 and c.coeff != -1:
            d = convert_negative(d, cid, choices.get(cid))
    for c in d.components:
        assert c.coeff is None or c.coeff == 1 or c.coeff == -1
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
    for _ in range(k):
        d = plus_one_surgery(d, f"pushoff:{tid}")
    return d


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
    d, pid = contact_pushoff(d, tid)
    if rp.is_infinite:
        return remove_component(d, pid)
    return set_coeff(d, pid, rp)


# ---------------------------------------------------------------------------
# Diagram isomorphism
# ---------------------------------------------------------------------------


def diagram_iso(a: ContactDiagram, b: ContactDiagram) -> bool:
    """Exact isomorphism: a component bijection preserving kind, smooth
    type, tb, rot, coefficient, parent relations and all linking numbers.
    Worst-case exponential; the verifier still runs it on presentations a
    certificate supplies (root check, ``same_diagram``, ``cancel_equivalent``)."""
    if len(a) != len(b):
        return False
    par_a, par_b = _parents(a), _parents(b)
    kids_a, kids_b = _children(par_a), _children(par_b)
    rows_a, rows_b = a.linking_rows(), b.linking_rows()
    sig_a = [_iso_signature(*x) for x in zip(a.components, rows_a, kids_a)]
    sig_b = [_iso_signature(*x) for x in zip(b.components, rows_b, kids_b)]
    if sorted(sig_a) != sorted(sig_b):
        return False
    positions = {}
    for y, s in enumerate(sig_b):
        positions.setdefault(s, []).append(y)
    candidates = [positions[s] for s in sig_a]
    return _match(rows_a, rows_b, par_a, par_b, kids_a, candidates, [], set())


def _iso_signature(c, row, kids):
    # Every row holds its own diagonal 0, so the sorted rows compare as
    # the sorted off-diagonal linking profiles do.
    return (
        c.kind,
        c.smooth_type,
        c.tb,
        c.rot,
        str(c.coeff),
        c.parent is None,
        len(kids),
        tuple(sorted(row)),
    )


def _parents(d):
    """Position of each component's parent, None for a root."""
    return [None if c.parent is None else d._pos[c.parent] for c in d.components]


def _children(parents):
    """Positions of each component's children."""
    kids = [[] for _ in parents]
    for z, p in enumerate(parents):
        if p is not None:
            kids[p].append(z)
    return kids


def _match(rows_a, rows_b, par_a, par_b, kids_a, candidates, mapping, used):
    """Extend ``mapping`` (a position of b for each of a's first positions)
    to a bijection preserving linking rows and parents.  A parent edge is
    checked as soon as both its ends are mapped, whichever comes first."""
    x = len(mapping)
    if x == len(candidates):
        return True
    row_x, pa = rows_a[x], par_a[x]
    for y in candidates[x]:
        if y in used:
            continue
        row_y = rows_b[y]
        if any(row_x[px] != row_y[py] for px, py in enumerate(mapping)):
            continue
        if pa is not None and pa < x and mapping[pa] != par_b[y]:
            continue
        if any(z < x and par_b[mapping[z]] != y for z in kids_a[x]):
            continue
        mapping.append(y)
        used.add(y)
        if _match(rows_a, rows_b, par_a, par_b, kids_a, candidates, mapping, used):
            return True
        mapping.pop()
        used.discard(y)
    return False
