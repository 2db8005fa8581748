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

A ``ContactDiagram`` is immutable and holds only queries; the one writer
of a diagram is the private ``_Draft`` (see Storage).  Component ids are
strings; freshly created components get ids "c1", "c2", ... in creation
order, and the component tuple preserves creation order, which makes the
rewrite scans below deterministic.

Storage
-------

Every pushoff is listed after its parent: the constructor and
``from_stored`` refuse any other order, which also refuses a missing
parent, a pushoff that is its own parent and every parent cycle.  The
moves keep the order, since each appends its new knots and a removal
moves a child only to its grandparent, listed earlier still.

Linking numbers are kept in one row per component, a dict keyed by the
ids of earlier components: each pair is stored by the later of its two
knots.  A pushoff's row holds its linking with its parent, frozen at
creation, and its deviations from the pushoff rule: lk(P, z) -
lk(parent, z) for every other earlier z where that is nonzero.  A root
knot holds its nonzero linkings with earlier components explicitly.
Zero entries are never stored, so given the components the rows are
unique, and comparing rows by position compares the full linking
matrices.

In the presentations of a slope, its reduction path and the tower
ladder, no pushoff deviates: a pushoff's row holds one entry, and
the diagram O(n) entries.  ``component(cid)`` reads the component tuple
at ``_pos[cid]``.  Every move edits a ``_Draft``, the same storage in
lists with an index of each knot's children.  Given a draft, a public
move edits it and returns it; given a ``ContactDiagram``, it copies it
into one draft, O(n), and returns the frozen result, O(n).  A row is
only ever replaced, never written, so the two share every row the move
leaves alone.  A move constructs every new or changed component exactly
once, with its final tb, rot and coefficient.  On a draft with n
components, in linking entries:

* adding an unknot or a trefoil appends an empty row, O(1);
* a contact pushoff appends the row {parent: tb(parent)}, O(1), created
  already carrying its coefficient (+1 for ``plus_one_surgery``);
* ``convert_positive`` appends its k unit pushoffs in one move, all
  sharing one such row, O(k); with an infinite residual it builds them
  where removing their parent would leave them, so each is constructed
  once;
* ``convert_negative`` appends its whole (-1)-chain in one move, each
  chain knot a pushoff of the previous one, created stabilized and at -1,
  O(m) for m knots;
* stabilizing or changing a coefficient shares every row, since the
  recorded linkings do not move;
* removing a component drops its row and its entry from the later rows
  that store one, shifts the position of every knot after it, and
  rewrites only its children's rows, found in the children index with
  no scan: a child reparented to the removed knot's parent takes the
  removed knot's deviations and its own, O(children) in emitted
  presentations.  A child demoted to a root is written out from the
  sparse rows of the matrix;
* ``linking`` follows the pushoff rule up the parents, and
  ``lower_linkings`` lists every nonzero linking in one pass, O(number
  of nonzero linkings); ``linking_rows`` expands them into the full
  symmetric matrix in O(n^2);
* ``diagram_iso`` compares two diagrams by position, row against row, in
  O(n + stored entries) with no search;
* ``stored_entries`` lists the rows as they are, and ``from_stored``
  builds a diagram from such entries, O(n + stored entries) each: this
  is the JSON form, and the one way to give a diagram linkings.  The
  constructor takes components alone, unlinked.

A generator (``tower_diagram``, ``trefoil_surgery_diagram``) and
``normalize_diagram`` run all their moves on one draft and freeze once.
The verifier's edge walk (``certify.node_presentations``) passes a draft
from edge to edge while no one else reads the presentation, and
``cancel_pushoff_pairs`` cancels on one draft.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import wraps
from heapq import heappop, heappush
from itertools import islice

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
    ``components[_pos[cid]]``.  ``_links[i]`` is row i, a dict from the
    ids of earlier components to nonzero ints: for a pushoff the frozen
    linking with its parent and its deviations from the pushoff rule, for
    a root knot its linkings.  The class holds queries only: nothing writes a
    ``ContactDiagram``, and a move runs on a ``_Draft`` copy of it, which
    shares its rows; the Storage section of the module docstring gives
    each move's cost.

    The constructor takes components alone, every linking zero;
    ``ContactDiagram()`` is the empty diagram.  ``from_stored`` takes
    the stored rows, as ``stored_entries`` lists them.  Both refuse a
    duplicate id and a pushoff whose parent is not listed before it, and
    ``from_stored`` a bad linking pair.
    """

    __slots__ = ("components", "_pos", "_links")

    def __init__(self, components=()):
        comps = tuple(components)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "_pos", _index(comps))
        object.__setattr__(self, "_links", ({},) * len(comps))

    @classmethod
    def from_stored(cls, components, entries):
        """The diagram with ``components`` whose stored rows hold
        ``entries``, (a, b, value, deviation) each, in O(components +
        entries) with nothing derived from the pushoff rule.

        Say b is the later of a and b.  An entry with ``deviation`` false
        is the linking of a and b; b must be a root knot, or a must be its
        parent.  An entry with ``deviation`` true is a pushoff b's
        deviation from the pushoff rule at a, which is not its parent.
        Each pair is given at most once, in either order, and a zero value
        is dropped.  Raises CalculusError at the first entry that breaks a
        rule, or on the components as the constructor does.
        """
        comps = tuple(components)
        pos = _index(comps)
        ids, rows, zeros = tuple(pos), [{} for _ in comps], False
        for a, b, value, deviation in entries:
            i, j = _pair_positions(pos, (a, b), value)
            c = comps[i]
            rule = c.parent not in (None, ids[j])
            if deviation != rule:
                if rule:
                    raise CalculusError(
                        f"pushoff {c.cid} links {ids[j]} by the pushoff rule from "
                        f"{c.parent}: give its deviation, not its linking"
                    )
                raise CalculusError(
                    f"{c.cid} has no deviation at {ids[j]}: only a pushoff deviates, "
                    "at a knot listed before it other than its parent"
                )
            row = rows[i]
            if ids[j] in row:
                raise CalculusError(f"linking of {a!r} and {b!r} given twice")
            row[ids[j]] = value
            zeros = zeros or not value
        if zeros:
            rows = [{k: v for k, v in row.items() if v} for row in rows]
        return cls._trusted(comps, tuple(rows), pos)

    @classmethod
    def _trusted(cls, components, links, pos):
        """Internal constructor for moves that preserve the invariants.

        ``components`` and ``links`` must be tuples of equal length, each
        row in the stored form; ``pos`` the matching id map; nothing is
        rechecked.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "_pos", pos)
        object.__setattr__(self, "_links", links)
        return self

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

    def _parent_pos(self, i: int) -> int | None:
        """Position of component i's parent, or None for a root."""
        parent = self.components[i].parent
        return None if parent is None else self._pos[parent]

    def linking(self, a: str, b: str) -> int:
        pos = self._pos
        if a not in pos or b not in pos:
            raise CalculusError(f"no such components {a!r}, {b!r}")
        if a == b:
            raise CalculusError(
                "self-linking is not stored; the framing is tb + coefficient"
            )
        i, j = pos[a], pos[b]
        if i < j:
            i, j = j, i
        # lk(i, j), i later: row i's entry, plus lk(parent, j) while i is
        # a pushoff and j is not its parent.
        total = 0
        while True:
            total += self._links[i].get(self.components[j].cid, 0)
            p = self._parent_pos(i)
            if p is None or p == j:
                return total
            i, j = (p, j) if p > j else (j, p)

    def linking_rows(self) -> list[list[int]]:
        """The full symmetric linking matrix by position, 0 on the diagonal;
        fresh lists the caller may overwrite."""
        n = len(self.components)
        rows = [[0] * n for _ in range(n)]
        for i, row in enumerate(self.lower_linkings()):
            for j, value in row.items():
                rows[i][j] = rows[j][i] = value
        return rows

    def lower_linkings(self) -> list[dict[int, int]]:
        """Row i as {j: lk(i, j)} over every earlier position j with a
        nonzero linking, in one pass over the stored form: O(number of
        nonzero linkings) in emitted presentations.

        A pushoff's row is its parent's row, then the parent's linkings
        with the knots between the two, each read off that knot's row, with
        the parent linking and the deviations applied."""
        pos, lower = self._pos, []
        for i, (c, row) in enumerate(zip(self.components, self._links)):
            if c.parent is None:
                new = {pos[k]: v for k, v in row.items()} if row else {}
            else:
                p = pos[c.parent]
                new = _rule_row(lower, p, i)
                for k, v in row.items():
                    z = pos[k]
                    new[z] = v if z == p else new.get(z, 0) + v
                if len(row) > (c.parent in row):
                    # A deviation may cancel the rule's value.
                    new = {z: v for z, v in new.items() if v}
            lower.append(new)
        return lower

    def stored_entries(self):
        """The stored rows as (a, b, value, deviation) entries, a before b,
        in row order, in O(n + stored entries): a pushoff's linking with
        its parent and every entry of a root's row with ``deviation``
        false, a pushoff's deviations with it true.  ``from_stored`` reads
        them back."""
        for c, row in zip(self.components, self._links):
            for k, v in row.items():
                yield k, c.cid, v, c.parent not in (None, k)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ContactDiagram):
            return NotImplemented
        return self.components == other.components and self._links == other._links

    def __hash__(self):
        return hash((self.components, tuple(frozenset(r.items()) for r in self._links)))

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{c.cid}:{c.smooth_type}(tb={c.tb},rot={c.rot},coeff={c.coeff})"
            for c in self.components
        )
        return f"ContactDiagram[{parts}]"


def _index(comps):
    """The id map of ``comps``, refusing a non-component, a duplicate id,
    and a pushoff whose parent is not listed before it: so also a missing
    parent, a pushoff that is its own parent and every parent cycle."""
    pos = {}
    for i, c in enumerate(comps):
        if not isinstance(c, LegendrianComponent):
            raise CalculusError("diagram components must be LegendrianComponent")
        if c.cid in pos:
            raise CalculusError(f"duplicate component id {c.cid!r}")
        if c.parent is not None and c.parent not in pos:
            raise CalculusError(
                f"pushoff {c.cid} names parent {c.parent!r}, which is not listed before it"
            )
        pos[c.cid] = i
    return pos


def _pair_positions(pos, pair, value):
    """The positions (later, earlier) of the linking pair (a, b) with
    ``value``; refuses a pair that is not two components, or a value
    that is not an int."""
    a, b = pair
    if a == b or a not in pos or b not in pos:
        raise CalculusError(f"bad linking pair {(a, b)!r}")
    if not isinstance(value, int):
        raise CalculusError(f"linking number for {(a, b)!r} must be an int")
    i, j = pos[a], pos[b]
    return (i, j) if i > j else (j, i)


def _rule_row(lower, p, i):
    """What the pushoff rule gives a pushoff at position i of the
    component at p, read off the lower rows: p's linking with every z < i
    other than p itself."""
    rule = dict(lower[p])
    for z in range(p + 1, i):
        v = lower[z].get(p)
        if v:
            rule[z] = v
    return rule


class _Draft(ContactDiagram):
    """A private copy of a diagram that the moves edit in place: the one
    writer of a diagram's rows, components and id map.

    It holds the stored form of ``ContactDiagram`` in lists, and a
    children index ``_kids`` from each id to its children's ids, built at
    the first removal (None until then).  Appending k knots costs O(k),
    replacing one O(1), and ``remove_component`` O(children + knots after
    the removed one).  Copying a diagram into a draft, and ``frozen()``,
    the immutable diagram a draft stands for, cost O(n).  A draft is never
    compared or hashed, and a move that raises leaves it unusable.
    """

    __slots__ = ("_kids",)

    def __init__(self, d):
        self.components, self._links = list(d.components), list(d._links)
        self._pos, self._kids = dict(d._pos), None

    def frozen(self) -> ContactDiagram:
        return ContactDiagram._trusted(
            tuple(self.components), tuple(self._links), dict(self._pos)
        )

    def _append(self, comps, rows):
        """Append ``comps`` in order, with stored rows ``rows``.  Callers
        take new ids from ``_fresh_ids`` and parents from components
        already present or appended before, so neither is checked here."""
        pos, kids = self._pos, self._kids
        for c in comps:
            pos[c.cid] = len(pos)
            if c.parent is not None and kids is not None:
                kids.setdefault(c.parent, {})[c.cid] = None
        self.components.extend(comps)
        self._links.extend(rows)
        return self

    def _replace(self, comp):
        """Put ``comp`` in place of the component with its id and parent."""
        self.components[self._pos[comp.cid]] = comp
        return self

    def _children(self, cid):
        """Positions of cid's children, in order."""
        if self._kids is None:
            self._kids = {}
            for c in self.components:
                if c.parent is not None:
                    self._kids.setdefault(c.parent, {})[c.cid] = None
        pos = self._pos
        return sorted(pos[k] for k in self._kids.get(cid, ()))


def _move(fn):
    """The public move ``fn``, which edits a ``_Draft``: given a diagram,
    it runs on a draft of it and returns the frozen result (and the new id
    where ``fn`` returns one)."""

    @wraps(fn)
    def move(d, *args, **kwargs):
        if isinstance(d, _Draft):
            return fn(d, *args, **kwargs)
        out = fn(_Draft(d), *args, **kwargs)
        if type(out) is tuple:
            return out[0].frozen(), out[1]
        return out.frozen()

    return move


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


@_move
def add_unknot(d, tb: int = -1, rot: int = 0, coeff=None):
    """Append a standard Legendrian unknot; returns (diagram, new id)."""
    cid = next(_fresh_ids(d))
    c = LegendrianComponent(cid, UNKNOT, None, UNKNOT, tb, rot, _opt_coeff(coeff))
    return d._append((c,), ({},)), cid


@_move
def add_trefoil(d, tb: int = 1, rot: int = 0, coeff=None):
    """Append a Legendrian right-handed trefoil; returns (diagram, new id)."""
    cid = next(_fresh_ids(d))
    c = LegendrianComponent(cid, RH_TREFOIL, None, RH_TREFOIL, tb, rot, _opt_coeff(coeff))
    return d._append((c,), ({},)), cid


def _opt_coeff(value):
    return None if value is None else _coerce_coeff(value)


def _restated(c, tb, rot, coeff):
    """Component c with new tb, rot and coefficient, checked as a new one."""
    return LegendrianComponent(c.cid, c.kind, c.parent, c.smooth_type, tb, rot, coeff)


@_move
def set_coeff(d, cid: str, coeff) -> ContactDiagram:
    """Return the diagram with cid's surgery coefficient replaced."""
    c = d.component(cid)
    return d._replace(_restated(c, c.tb, c.rot, _opt_coeff(coeff)))


@_move
def stabilize(d, cid: str, sign: int) -> ContactDiagram:
    """Stabilize a component: tb drops by one, rot moves by sign (+1/-1)."""
    if sign not in (1, -1):
        raise CalculusError(f"stabilization sign must be +1 or -1, got {sign!r}")
    c = d.component(cid)
    return d._replace(_restated(c, c.tb - 1, c.rot + sign, c.coeff))


def _new_pushoff_row(parent):
    """The stored row of a new, undeviating pushoff of ``parent``: its
    linking with the parent, tb(parent)."""
    return {parent.cid: parent.tb} if parent.tb else {}


@_move
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
    return d._append((comp,), (_new_pushoff_row(parent),)), new_id


def _unit_pushoffs(d, x, k, parent, row):
    """Append k contact pushoffs of the knot x, each carrying +1, in one
    move, as children of ``parent`` sharing the stored row ``row``.

    Each copies x's linkings and links x and every earlier one of them
    tb(x) times, which the pushoff rule implies, so all k share one row:
    ``_new_pushoff_row(x)`` when ``parent`` is x; the ids are the ones k
    successive ``contact_pushoff`` calls would give."""
    pushoffs = [
        LegendrianComponent(new, PUSHOFF, parent, x.smooth_type, x.tb, x.rot, _PLUS_ONE)
        for new in islice(_fresh_ids(d), k)
    ]
    return d._append(pushoffs, (row,) * k)


@_move
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


def _reparents(d, x, tb, link) -> bool:
    """Whether removing the pushoff parent x reparents its child C, of
    Thurston-Bennequin number tb and linking x ``link`` times, to x's own
    parent Y: when the recorded linkings prove C is still an unstabilized
    contact pushoff of Y as it sits today,

        lk(C, X) == lk(X, Y)   (X was not stabilized between the creations)
        tb(C)    == lk(C, X)   (C was never stabilized)
        tb(Y)    == lk(X, Y)   (Y unchanged since X was created)

    Never when X is a root knot."""
    y = x.parent
    return y is not None and link == d.linking(x.cid, y) == tb == d.component(y).tb


@_move
def remove_component(d, cid: str) -> ContactDiagram:
    """Drop a component, repairing pushoff parent references.

    Each child pushoff C of the removed component X, listed after X, is
    reparented to X's own parent Y, listed before X, when ``_reparents``
    says so.  Otherwise C is demoted to a root of its recorded smooth type,
    keeping every linking number it already has.

    Only the children's rows are rewritten, and the later rows that store
    a linking with X lose that entry.  A reparented child keeps a
    pushoff's row: lk(C, z) - lk(Y, z) is X's deviation plus C's, with
    X's slid row (``_slid_after``) standing in for X's deviations at
    positions after X.  A demoted child's row is written out from the
    sparse rows of the matrix.  Every new row is found before any is
    written, since each reads the others.
    """
    dead = d.component(cid)
    grandparent = dead.parent
    i, comps, links, pos = d._pos[cid], d.components, d._links, d._pos
    changed = []  # (position, the component and row that replace it)
    children = d._children(cid)
    slid = lower = None
    for j in children:
        c, row = comps[j], links[j]
        if _reparents(d, dead, c.tb, row.get(cid, 0)):
            c = LegendrianComponent(
                c.cid, PUSHOFF, grandparent, c.smooth_type, c.tb, c.rot, c.coeff
            )
            if slid is None:
                slid, shared = _slid_after(d, i, pos[grandparent], children[-1]), {}
            if slid:
                row = _reparented_row(d, i, row, slid, j)
            else:
                # Then the new row depends on the stored row alone, which
                # unit pushoffs share.
                if id(row) not in shared:
                    shared[id(row)] = _reparented_row(d, i, row, slid, j)
                row = shared[id(row)]
        else:
            c = LegendrianComponent(
                c.cid, c.smooth_type, None, c.smooth_type, c.tb, c.rot, c.coeff
            )
            if lower is None:
                lower, ids = d.lower_linkings(), d.ids()
            row = {ids[z]: v for z, v in lower[j].items() if z != i}
        changed.append((j, c, row))
    # ``_children`` built the index; each child moves to its new parent's
    # entry, or to none.
    kids = d._kids
    for j, c, row in changed:
        if c.parent is not None:
            kids[c.parent][c.cid] = None
        comps[j], links[j] = c, row
    kids.pop(cid, None)
    if grandparent is not None:
        del kids[grandparent][cid]
    del comps[i], links[i], pos[cid]
    # No child's new row stores X, so only the other later rows lose it.
    for j in range(i, len(comps)):
        row = links[j]
        pos[comps[j].cid] = j
        if cid in row:
            links[j] = {k: v for k, v in row.items() if k != cid}
    return d


def _slid_after(d, i, y, last):
    """{z: lk(X, z) - lk(Y, z)} at the positions z after X up to ``last``
    where it is nonzero, in position order; X is component i, a pushoff
    of component y.  Each value is read off z's stored row, plus, when z
    is a pushoff of a knot other than X and Y, the value at that knot:
    found already, or X's deviation there when it sits before X."""
    comps, links = d.components, d._links
    x_id, y_id = comps[i].cid, comps[y].cid
    bx, deviations = links[i].get(y_id, 0), links[i]
    slid = {}
    for z in range(i + 1, last + 1):
        row = links[z]
        v = row.get(x_id, 0) - row.get(y_id, 0)
        l = d._parent_pos(z)
        if l == i:
            v -= bx
        elif l == y:
            v += bx
        elif l is not None:
            v += slid.get(l, 0) if l > i else deviations.get(comps[l].cid, 0)
        if v:
            slid[z] = v
    return slid


def _reparented_row(d, i, own, slid, j):
    """The stored row of a pushoff of component i at position j, with
    stored row ``own``, reparented to i's parent Y: lk(j, Y), and
    lk(j, z) - lk(Y, z) for every other earlier z, which is i's deviation
    plus j's own."""
    comps, links = d.components, d._links
    x_id, y_id = comps[i].cid, comps[d._parent_pos(i)].cid
    row = {k: v for k, v in links[i].items() if k != y_id}
    for z, v in slid.items():
        if z >= j:
            break
        row[comps[z].cid] = v
    for k, v in own.items():
        if k != x_id:
            row[k] = row.get(k, 0) + v
    row[y_id] = row.get(y_id, 0) + links[i].get(y_id, 0)
    return {k: v for k, v in row.items() if v}


# ---------------------------------------------------------------------------
# Conversion of rational coefficients to +/-1 presentations
# ---------------------------------------------------------------------------


@_move
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
    d._replace(knot)
    chain, rows = [], []
    for (count, shift), new in zip(rest, _fresh_ids(d)):
        # A pushoff of the previous chain knot, which it links tb times.
        rows.append(_new_pushoff_row(knot))
        knot = LegendrianComponent(
            new, PUSHOFF, knot.cid, knot.smooth_type,
            knot.tb - count, knot.rot + shift, _MINUS_ONE,
        )
        chain.append(knot)
    return d._append(chain, rows)


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


@_move
def convert_positive(d, cid: str, k: int) -> ContactDiagram:
    """Split a positive rational surgery on cid into k unit (+1) pushoffs.

    Appends k contact pushoffs of cid, each with coefficient +1, in one
    move, O(k), and leaves the residual coefficient rp/(1 - k*rp) on cid
    itself.  If the residual is infinite the component's surgery becomes
    trivial and it is removed.  When ``_reparents`` holds for a fresh
    pushoff, that removal would move the pushoffs on to cid's parent Y, so
    they are built there, sharing one reparented row, and cid is removed
    with only its other children: each knot is constructed once, and the
    result equals appending them to cid and removing cid.  Otherwise (cid
    a root knot, or stabilized since its creation) they are appended to
    cid and the removal repairs them.
    """
    comp = d.component(cid)
    if comp.coeff is None or comp.coeff.is_infinite or comp.coeff.num <= 0:
        raise CalculusError(
            f"component {cid} needs a finite positive coefficient, got {comp.coeff}"
        )
    if not isinstance(k, int) or k < 1:
        raise CalculusError(f"pushoff count must be a positive integer, got {k!r}")
    residual = residual_coeff(comp.coeff, k)
    if not residual.is_infinite:
        d = _unit_pushoffs(d, comp, k, cid, _new_pushoff_row(comp))
        return d._replace(_restated(comp, comp.tb, comp.rot, residual))
    # A fresh pushoff of cid has its tb and links it tb times.
    i, y = d._pos[cid], comp.parent
    if _reparents(d, comp, comp.tb, comp.tb):
        row = _reparented_row(d, i, {}, _slid_after(d, i, d._pos[y], len(d) - 1), len(d))
        d = _unit_pushoffs(d, comp, k, y, row)
    else:
        d = _unit_pushoffs(d, comp, k, cid, _new_pushoff_row(comp))
    return remove_component(d, cid)


@_move
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
    so its children can reparent through it), and the next pair is the
    first one again: the first K in order that has such a P, with its
    first such P, until no pair is left.  Cancelling such a pair does not
    change the presented contact manifold.

    Only a (-1)-knot with a (+1) pushoff is looked at, once, and again
    only when a cancellation hands it children: a removal changes no tb,
    coefficient or linking, only the parents of the removed knots'
    children, which pass to the parent of the cancelled K.  Knots keep
    their relative order, so a heap of their first positions gives the
    first K.  The removals edit one ``_Draft``, whose children index finds
    each K's pushoffs.  Finding the pairs costs O(n + stored entries), and
    each cancellation its two removals.
    """
    comps, pos = d.components, d._pos
    heap = sorted({pos[c.parent] for c in comps if c.parent is not None and c.coeff == _PLUS_ONE})
    heap = [i for i in heap if comps[i].coeff == _MINUS_ONE]
    if not heap:
        return d
    work = _Draft(d)
    while heap:
        kid = comps[heappop(heap)].cid
        if kid not in work._pos:
            continue
        pid = _first_pushoff_pair(work, kid)
        if pid is None:
            continue
        work = remove_component(work, pid)
        parent = work.component(kid).parent
        work = remove_component(work, kid)
        if parent is not None and work.component(parent).coeff == _MINUS_ONE:
            heappush(heap, pos[parent])
    return work.frozen() if len(work) < len(d) else d


def _first_pushoff_pair(d, kid):
    """The first (+1) pushoff of the (-1)-knot kid that cancels against
    it, or None."""
    k = d.component(kid)
    for j in d._children(kid):
        p = d.components[j]
        if p.coeff == _PLUS_ONE and p.tb == k.tb == d.linking(p.cid, kid):
            assert p.rot == k.rot
            return p.cid
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
    d, tid = add_trefoil(_Draft(ContactDiagram()), coeff=_MINUS_ONE)
    trefoil = d.component(tid)
    return _unit_pushoffs(d, trefoil, k, tid, _new_pushoff_row(trefoil)).frozen()


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
    d, tid = add_trefoil(_Draft(ContactDiagram()), coeff=_MINUS_ONE)
    if not rp.is_infinite:
        contact_pushoff(d, tid, rp)
    return d.frozen()


# ---------------------------------------------------------------------------
# Comparing presentations
# ---------------------------------------------------------------------------


def diagram_iso(a: ContactDiagram, b: ContactDiagram) -> bool:
    """Positional isomorphism: component i of ``a`` matches component i
    of ``b`` in kind, smooth type, tb, rot and coefficient, the parents
    sit at the same positions, and the stored rows hold the same entries
    by position, so the linking matrices are equal.  Ids may differ.
    O(n + stored entries) with no search.  Equality by position is a
    special case of isomorphism, so ``True`` proves the diagrams
    isomorphic, but ``False`` does not prove them non-isomorphic: a
    relabelling that also reorders the components is not found.  The
    verifier runs it on presentations a certificate supplies
    (``same_diagram``, ``cancel_equivalent``)."""
    if len(a) != len(b) or _parents(a) != _parents(b):
        return False
    if not all(
        (x.kind, x.smooth_type, x.tb, x.rot, x.coeff)
        == (y.kind, y.smooth_type, y.tb, y.rot, y.coeff)
        for x, y in zip(a.components, b.components)
    ):
        return False
    pos, ids = a._pos, b.ids()
    for ra, rb in zip(a._links, b._links):
        if len(ra) != len(rb):
            return False
        for k, v in ra.items():
            if rb.get(ids[pos[k]]) != v:
                return False
    return True


def _parents(d):
    """Position of each component's parent, None for a root."""
    return [None if c.parent is None else d._pos[c.parent] for c in d.components]
