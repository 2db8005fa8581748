"""The dense diagram representation, kept as a reference for the stored
form of ``tightcert.diagrams``.

``reference_ContactDiagram`` keeps every linking by position in
lower-triangular rows, row i a tuple of i ints, as the package did before
its rows became sparse; the moves below work on those rows, and
``reference_h1`` slides each pushoff's dense row over its parent's, and an
only child's column over its parent's, before the Smith normal form.  The
components themselves, and the helpers that only read them, are the
package's own.  ``reference_det`` is the dense Bareiss determinant, and
``from_linkings`` builds a package diagram from every nonzero linking.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice, zip_longest
from operator import sub

from tightcert.diagrams import (
    PUSHOFF,
    RH_TREFOIL,
    UNKNOT,
    ContactDiagram,
    LegendrianComponent,
    _check_choice,
    _fresh_ids,
    _index,
    _opt_coeff,
    _pair_positions,
    _restated,
    _stored_row,
)
from tightcert.errors import CalculusError
from tightcert.rationals import (
    SurgeryCoeff,
    neg_continued_fraction,
    residual_coeff,
    split_count,
)
from tightcert.topology import _framings, smith_normal_form

_PLUS_ONE = SurgeryCoeff(1)
_MINUS_ONE = SurgeryCoeff(-1)


def linking_pairs(d):
    """The nonzero linkings of any diagram by unordered id pair, read off
    its ``linking_rows``."""
    ids = d.ids()
    return {
        frozenset((ids[i], ids[j])): v
        for i, row in enumerate(d.linking_rows())
        for j, v in enumerate(row[:i])
        if v
    }


def from_linkings(components, linkings=None):
    """The package diagram with ``components`` and the nonzero linkings
    ``linkings`` gives by unordered id pair, every other pair unlinked:
    each tree pushoff's row is derived from its parent's by the pushoff
    rule and handed to ``ContactDiagram.from_stored``."""
    comps = tuple(components)
    pos = _index(comps)
    lower = [{} for _ in comps]
    for pair, value in (linkings or {}).items():
        i, j = _pair_positions(pos, pair, value)
        if value:
            lower[i][j] = value
    ids, entries = tuple(pos), []
    for i, c in enumerate(comps):
        p = pos[c.parent] if c.kind == PUSHOFF else i
        tree = p < i
        for k, v in _stored_row(ids, i, p if tree else None, lower).items():
            entries.append((k, c.cid, v, tree and k != c.parent))
    return ContactDiagram.from_stored(comps, entries)


class reference_ContactDiagram:
    """Components in creation order, ``_pos`` their positions, and
    ``_rows[i][j]`` (j < i) lk(components[i], components[j])."""

    __slots__ = ("components", "_pos", "_rows")

    def __init__(self, components=(), linkings=None):
        comps = tuple(components)
        pos = {}
        for i, c in enumerate(comps):
            if c.cid in pos:
                raise CalculusError(f"duplicate component id {c.cid!r}")
            pos[c.cid] = i
        for c in comps:
            if c.kind == PUSHOFF and c.parent not in pos:
                raise CalculusError(f"pushoff {c.cid} names missing parent {c.parent!r}")
            if c.parent == c.cid:
                raise CalculusError(f"pushoff {c.cid} names itself as its parent")
        rows = [[0] * i for i in range(len(comps))]
        for pair, value in (linkings or {}).items():
            a, b = tuple(pair)
            if a == b or a not in pos or b not in pos:
                raise CalculusError(f"bad linking pair {(a, b)!r}")
            if value:
                i, j = pos[a], pos[b]
                if i > j:
                    rows[i][j] = value
                else:
                    rows[j][i] = value
        self.components, self._pos, self._rows = comps, pos, tuple(map(tuple, rows))

    @classmethod
    def _trusted(cls, components, rows, pos):
        self = object.__new__(cls)
        self.components, self._pos, self._rows = components, pos, rows
        return self

    def __len__(self):
        return len(self.components)

    def __contains__(self, cid):
        return cid in self._pos

    def ids(self):
        return tuple(c.cid for c in self.components)

    def component(self, cid):
        try:
            return self.components[self._pos[cid]]
        except KeyError:
            raise CalculusError(f"no component {cid!r} in diagram") from None

    def linking(self, a, b):
        i, j = self._pos[a], self._pos[b]
        return self._rows[i][j] if j < i else self._rows[j][i]

    def linking_rows(self):
        rows = self._rows
        return [
            [*row, 0, *column[i + 1:]]
            for i, (row, column) in enumerate(
                zip_longest(rows, zip_longest(*rows), fillvalue=())
            )
        ]

    def __eq__(self, other):
        return self.components == other.components and self._rows == other._rows

    def __hash__(self):
        return hash((self.components, self._rows))


def _appended(d, comps, rows):
    pos = dict(d._pos)
    for c in comps:
        pos[c.cid] = len(pos)
    return reference_ContactDiagram._trusted(
        d.components + tuple(comps), d._rows + tuple(rows), pos
    )


def add_unknot(d, tb=-1, rot=0, coeff=None):
    cid = next(_fresh_ids(d))
    c = LegendrianComponent(cid, UNKNOT, None, UNKNOT, tb, rot, _opt_coeff(coeff))
    return _appended(d, (c,), ((0,) * len(d),)), cid


def add_trefoil(d, tb=1, rot=0, coeff=None):
    cid = next(_fresh_ids(d))
    c = LegendrianComponent(cid, RH_TREFOIL, None, RH_TREFOIL, tb, rot, _opt_coeff(coeff))
    return _appended(d, (c,), ((0,) * len(d),)), cid


def _with_replaced(d, comp):
    i = d._pos[comp.cid]
    comps = d.components[:i] + (comp,) + d.components[i + 1:]
    return reference_ContactDiagram._trusted(comps, d._rows, d._pos)


def set_coeff(d, cid, coeff):
    c = d.component(cid)
    return _with_replaced(d, _restated(c, c.tb, c.rot, _opt_coeff(coeff)))


def stabilize(d, cid, sign):
    c = d.component(cid)
    return _with_replaced(d, _restated(c, c.tb - 1, c.rot + sign, c.coeff))


def _pushoff_row(d, cid):
    i, rows = d._pos[cid], d._rows
    return rows[i] + (d.components[i].tb,) + tuple(r[i] for r in rows[i + 1:])


def contact_pushoff(d, cid, coeff=None):
    parent = d.component(cid)
    new_id = next(_fresh_ids(d))
    comp = LegendrianComponent(
        new_id, PUSHOFF, cid, parent.smooth_type, parent.tb, parent.rot, _opt_coeff(coeff)
    )
    return _appended(d, (comp,), (_pushoff_row(d, cid),)), new_id


def _unit_pushoffs(d, cid, k):
    parent, row = d.component(cid), _pushoff_row(d, cid)
    pushoffs = [
        LegendrianComponent(new, PUSHOFF, cid, parent.smooth_type, parent.tb, parent.rot, _PLUS_ONE)
        for new in islice(_fresh_ids(d), k)
    ]
    return _appended(d, pushoffs, [row + (parent.tb,) * j for j in range(k)])


def plus_one_surgery(d, witness):
    if witness == "unknot":
        return add_unknot(d, coeff=_PLUS_ONE)[0]
    if witness.startswith("pushoff:"):
        return contact_pushoff(d, witness[len("pushoff:"):], _PLUS_ONE)[0]
    k = d.component(witness[len("cancel:"):])
    if k.coeff != _MINUS_ONE:
        raise CalculusError(f"component {k.cid} carries {k.coeff}, not -1")
    return remove_component(d, k.cid)


def remove_component(d, cid):
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
                grandparent not in (None, c.cid)
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
    return reference_ContactDiagram._trusted(
        tuple(new_comps), rows, {c.cid: k for k, c in enumerate(new_comps)}
    )


def convert_negative(d, cid, choice=None):
    comp = d.component(cid)
    cf = neg_continued_fraction(comp.coeff)
    (count, shift), *rest = _check_choice(choice, cf.stabilization_counts(), cid)
    knot = _restated(comp, comp.tb - count, comp.rot + shift, _MINUS_ONE)
    d = _with_replaced(d, knot)
    chain, rows, row = [], [], _pushoff_row(d, cid)
    for (count, shift), new in zip(rest, _fresh_ids(d)):
        knot = LegendrianComponent(
            new, PUSHOFF, knot.cid, knot.smooth_type,
            knot.tb - count, knot.rot + shift, _MINUS_ONE,
        )
        chain.append(knot)
        rows.append(row)
        row = row + (knot.tb,)
    return _appended(d, chain, rows)


def convert_positive(d, cid, k):
    comp = d.component(cid)
    residual = residual_coeff(comp.coeff, k)
    d = _unit_pushoffs(d, cid, k)
    if residual.is_infinite:
        return remove_component(d, cid)
    return _with_replaced(d, _restated(comp, comp.tb, comp.rot, residual))


def normalize_diagram(d, choices=None):
    choices = dict(choices or {})
    for cid in d.ids():
        c = d.component(cid)
        if c.coeff is not None and c.coeff.is_infinite:
            d = remove_component(d, cid)
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
    return d


def cancel_pushoff_pairs(d, remove=None):
    """The cancellation the package made before it indexed each knot's
    pushoffs: the scan for the first pair starts again from the front
    after every cancellation.  ``remove`` removes a component, by default
    this module's ``remove_component``; with
    ``tightcert.diagrams.remove_component`` it runs on the package's
    diagrams, as the reference for ``diagrams.cancel_pushoff_pairs``."""
    remove = remove or remove_component
    while True:
        pair = next(
            (
                (k.cid, p.cid)
                for k in d.components
                if k.coeff == _MINUS_ONE
                for p in d.components
                if p.kind == PUSHOFF
                and p.parent == k.cid
                and p.coeff == _PLUS_ONE
                and p.tb == k.tb == d.linking(p.cid, k.cid)
            ),
            None,
        )
        if pair is None:
            return d
        d = remove(remove(d, pair[1]), pair[0])


def _parents(d):
    return [None if c.parent is None else d._pos[c.parent] for c in d.components]


def diagram_iso(a, b):
    return (
        a._rows == b._rows
        and _parents(a) == _parents(b)
        and all(
            (x.kind, x.smooth_type, x.tb, x.rot, x.coeff)
            == (y.kind, y.smooth_type, y.tb, y.rot, y.coeff)
            for x, y in zip(a.components, b.components)
        )
    )


def reference_slid_rows(d):
    """The dense linking matrix, framings on the diagonal, with each
    pushoff's row minus its parent's row when the parent sits earlier, and
    then each such pushoff's column minus its parent's column when no
    other pushoff of that parent sits after the parent."""
    rows = d.linking_rows()
    for i, f in enumerate(_framings(d)):
        rows[i][i] = f
    tree = [k if k is not None and k < i else None for i, k in enumerate(_parents(d))]
    m = [list(r) for r in rows]
    for i, k in enumerate(tree):
        if k is not None:
            rows[i] = list(map(sub, m[i], m[k]))
    m = [list(r) for r in rows]
    children = Counter(tree)
    for i, k in enumerate(tree):
        if k is not None and children[k] == 1:
            for row, old in zip(rows, m):
                row[i] = old[i] - old[k]
    return rows


def reference_h1(d):
    return smith_normal_form(reference_slid_rows(d))


def reference_det(m):
    """The determinant of a square integer matrix by dense Bareiss
    fraction-free elimination, swapping a row up for a zero pivot."""
    a = [list(row) for row in m]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for t in range(n - 1):
        if a[t][t] == 0:
            swap = next((i for i in range(t + 1, n) if a[i][t]), None)
            if swap is None:
                return 0
            a[t], a[swap] = a[swap], a[t]
            sign = -sign
        ptt = a[t][t]
        for i in range(t + 1, n):
            ait = a[i][t]
            row = a[i]
            prow = a[t]
            a[i] = [(ptt * row[j] - ait * prow[j]) // prev for j in range(n)]
        prev = ptt
    return sign * a[n - 1][n - 1]
