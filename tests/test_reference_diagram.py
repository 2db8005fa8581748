"""The stored form of ``ContactDiagram`` against the dense reference.

``reference_ContactDiagram`` (tests/reference_diagram.py) keeps every
linking by position, as the package did before its rows became sparse.
Random diagrams, in random orders that list each pushoff after its
parent and with arbitrary linkings, random move sequences, and removals
that reparent children through the removed knot's slid row are run
through both; the linking rows, single linkings, ``h1`` and the slid
rows it reduces, ``==``, ``hash`` and ``diagram_iso`` must agree at every
step.  Every move keeps each pushoff after its parent, and the JSON form
reads back every diagram ``from_linkings`` builds.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import replace

import pytest

import reference_diagram as ref
from reference_diagram import (
    from_linkings,
    linking_pairs,
    parents_first,
    reference_ContactDiagram,
)
from tightcert import diagrams
from tightcert.diagrams import (
    PUSHOFF,
    RH_TREFOIL,
    UNKNOT,
    ContactDiagram,
    LegendrianComponent,
    diagram_iso,
)
from tightcert.errors import CalculusError, ParseError
from tightcert.rationals import SurgeryCoeff, neg_continued_fraction
from tightcert.serialize import diagram_from_dict, diagram_to_dict
from tightcert.topology import _slid_rows, h1

_MOVES = (
    "unknot", "trefoil", "pushoff", "pushoff", "stabilize", "coeff", "remove",
    "plus_one", "cancel", "negative", "positive", "normalize", "cancel_pairs",
)


def both(comps, pairs):
    return from_linkings(comps, pairs), reference_ContactDiagram(comps, pairs)


def random_components(rng):
    """Components and linkings from random public moves, mostly listed in
    a random parents-first order, and sometimes with linkings that break
    the pushoff rule."""
    d = diagrams.empty_diagram()
    for _ in range(rng.randrange(1, 10)):
        kind = rng.choice(("unknot", "trefoil", "pushoff", "pushoff", "pushoff", "stabilize"))
        cid = rng.choice(d.ids()) if len(d) else None
        if kind == "unknot" or (cid is None and kind != "trefoil"):
            d, _ = diagrams.add_unknot(d, tb=-1 - rng.randrange(3))
        elif kind == "trefoil":
            d, _ = diagrams.add_trefoil(d, tb=1 - rng.randrange(3))
        elif kind == "pushoff":
            d, _ = diagrams.contact_pushoff(d, cid)
        else:
            d = diagrams.stabilize(d, cid, rng.choice((1, -1)))
    comps = [replace(c, coeff=SurgeryCoeff(rng.choice((-3, -1, 1, 2)))) for c in d.components]
    pairs = linking_pairs(d)
    if rng.random() < 0.5:
        ids = [c.cid for c in comps]
        for _ in range(rng.randrange(1, 4)):
            if len(ids) > 1:
                a, b = rng.sample(ids, 2)
                pairs[frozenset((a, b))] = rng.randrange(-3, 4)
    if rng.random() < 0.8:
        comps = parents_first(comps, rng)
    return comps, pairs


def signed(d, module, rng_state):
    """d with every coefficient +1 or -1, the same on both sides."""
    rng = random.Random(rng_state)
    for cid in d.ids():
        d = module.set_coeff(d, cid, SurgeryCoeff(rng.choice((1, -1))))
    return d


def dense_slid_rows(d):
    rows = _slid_rows(d)
    out = [[0] * len(rows) for _ in rows]
    for i, row in enumerate(rows):
        for j, v in row.items():
            out[i][j] = v
    return out


def assert_match(new, old, rng):
    assert new.components == old.components
    assert new.linking_rows() == old.linking_rows()
    # The moves leave the unique stored form ``from_linkings`` builds.
    rebuilt = from_linkings(new.components, linking_pairs(new))
    assert rebuilt._links == new._links and hash(rebuilt) == hash(new)
    ids = new.ids()
    for _ in range(min(6, len(ids) * (len(ids) - 1))):
        a, b = rng.sample(ids, 2)
        assert new.linking(a, b) == old.linking(a, b)
    if len(new):
        state = rng.random()
        s_new, s_old = signed(new, diagrams, state), signed(old, ref, state)
        assert dense_slid_rows(s_new) == ref.reference_slid_rows(s_old)
        assert h1(s_new) == ref.reference_h1(s_old)


def move(d, module, kind, rng):
    """One move of ``kind`` on d through ``module`` (the package or the
    reference), with choices drawn from rng; None when it does not apply."""
    ids = d.ids()
    cid = rng.choice(ids) if ids else None
    if kind == "unknot":
        return module.add_unknot(d, tb=-1 - rng.randrange(2), coeff=SurgeryCoeff(-1))[0]
    if kind == "trefoil":
        return module.add_trefoil(d, coeff=SurgeryCoeff(rng.choice((-1, 1))))[0]
    if cid is None:
        return None
    if kind == "pushoff":
        return module.contact_pushoff(d, cid, SurgeryCoeff(rng.choice((-1, 1, 3))))[0]
    if kind == "stabilize":
        return module.stabilize(d, cid, rng.choice((1, -1)))
    if kind == "coeff":
        return module.set_coeff(d, cid, SurgeryCoeff(rng.choice((-7, -3, -1, 1, 2, 5)), rng.choice((1, 2, 3))))
    if kind == "remove":
        return module.remove_component(d, cid)
    if kind == "plus_one":
        return module.plus_one_surgery(d, rng.choice(("unknot", f"pushoff:{cid}")))
    if kind == "cancel":
        return module.plus_one_surgery(module.set_coeff(d, cid, SurgeryCoeff(-1)), f"cancel:{cid}")
    c = d.component(cid)
    if kind == "negative" and c.coeff is not None and c.coeff.num < 0 and c.coeff != SurgeryCoeff(-1):
        counts = neg_continued_fraction(c.coeff).stabilization_counts()
        choice = [[rng.choice((1, -1)) for _ in range(n)] for n in counts]
        return module.convert_negative(d, cid, choice if rng.random() < 0.5 else None)
    if kind == "positive" and c.coeff is not None and c.coeff.num > 0:
        return module.convert_positive(d, cid, rng.randrange(1, 4))
    if kind == "normalize":
        return module.normalize_diagram(d)
    if kind == "cancel_pairs":
        return module.cancel_pushoff_pairs(d)
    return None


def test_from_linkings_matches_the_reference():
    rng = random.Random(1601)
    for _ in range(300):
        comps, pairs = random_components(rng)
        new, old = both(comps, pairs)
        assert_match(new, old, rng)


def test_moves_match_the_reference():
    # Each move also runs on a draft of its input.  Given a diagram, a move
    # returns a new ContactDiagram and leaves its input as it was; given a
    # draft, it edits the draft and returns it.  ``cancel_pushoff_pairs``
    # is no such move: it makes its own draft.
    rng = random.Random(1602)
    steps = 0
    for _ in range(120):
        new, old = both(*random_components(rng))
        for _ in range(rng.randrange(1, 12)):
            kind = rng.choice(_MOVES)
            state = rng.random()
            snapshot = new.components, [dict(row) for row in new._links], dict(new._pos)
            draft = diagrams._Draft(new)
            try:
                got = move(new, diagrams, kind, random.Random(state))
            except CalculusError as exc:
                for d, module in ((old, ref), (draft, diagrams)):
                    with pytest.raises(CalculusError, match=re.escape(str(exc))):
                        move(d, module, kind, random.Random(state))
                assert (new.components, list(new._links), new._pos) == snapshot
                continue
            assert (new.components, list(new._links), new._pos) == snapshot
            edited = move(draft, diagrams, kind, random.Random(state))
            want = move(old, ref, kind, random.Random(state))
            if got is None:
                assert want is None and edited is None
                continue
            assert type(got) is ContactDiagram
            assert edited is draft or kind == "cancel_pairs"
            if type(edited) is diagrams._Draft:
                edited = edited.frozen()
            assert edited == got and edited.ids() == got.ids()
            new, old = got, want
            assert_match(new, old, rng)
            steps += 1
    assert steps > 500


def test_equality_and_iso_match_the_reference():
    rng = random.Random(1603)
    pool = []
    for _ in range(60):
        comps, pairs = random_components(rng)
        pool.append(both(comps, pairs))
        # The same diagram renamed, and with one linking bumped.
        names = {c.cid: f"r{i}" for i, c in enumerate(comps)}
        renamed = [
            replace(c, cid=names[c.cid], parent=c.parent and names[c.parent]) for c in comps
        ]
        pool.append(both(renamed, {frozenset(names[x] for x in p): v for p, v in pairs.items()}))
        if len(comps) > 1:
            a, b = rng.sample([c.cid for c in comps], 2)
            bumped = dict(pairs)
            bumped[frozenset((a, b))] = bumped.get(frozenset((a, b)), 0) + 1
            pool.append(both(comps, bumped))
    isos = 0
    for a_new, a_old in pool:
        for b_new, b_old in pool:
            if len(a_new) != len(b_new):
                continue
            assert (a_new == b_new) == (a_old == b_old)
            iso = diagram_iso(a_new, b_new)
            assert iso == ref.diagram_iso(a_old, b_old)
            isos += iso
    assert isos > len(pool)


def test_every_move_keeps_each_pushoff_after_its_parent():
    # The constructor and ``from_stored`` refuse any other order, so each
    # move must keep it, and ``from_stored`` must read every result back
    # from its stored entries.
    rng = random.Random(1605)
    done = dict.fromkeys(_MOVES, 0)
    for _ in range(300):
        d = from_linkings(*random_components(rng))
        for _ in range(rng.randrange(1, 12)):
            kind = rng.choice(_MOVES)
            try:
                got = move(d, diagrams, kind, rng)
            except CalculusError:
                continue
            if got is None:
                continue
            d, pos = got, got._pos
            assert all(c.parent is None or pos[c.parent] < i for i, c in enumerate(d.components))
            assert ContactDiagram.from_stored(d.components, d.stored_entries()) == d
            done[kind] += 1
    assert min(done.values()) > 5, done


def renamed(d, rng):
    """d with fresh ids in its own order: isomorphic by position."""
    names = {cid: f"r{rng.randrange(10**6)}_{i}" for i, cid in enumerate(d.ids())}
    comps = [
        replace(c, cid=names[c.cid], parent=c.parent and names[c.parent]) for c in d.components
    ]
    pairs = {frozenset(names[x] for x in p): v for p, v in linking_pairs(d).items()}
    return from_linkings(comps, pairs)


def test_isomorphic_diagrams_cancel_to_isomorphic_forms():
    # ``cancel_equivalent`` accepts a pair of isomorphic presentations
    # without cancelling them.  That keeps every verdict only because
    # ``diagram_iso(a, b)`` implies it for the cancelled forms: checked on
    # random move sequences against renamed copies, and against copies
    # that differ by one move, which are sometimes isomorphic as well.
    rng = random.Random(1606)
    cancelled = isos = 0
    for _ in range(150):
        d = nested_pushoffs(rng) if rng.random() < 0.6 else from_linkings(*random_components(rng))
        for _ in range(rng.randrange(1, 8)):
            try:
                got = move(d, diagrams, rng.choice(_MOVES), rng)
            except CalculusError:
                continue
            d = got if got is not None else d
            twin = renamed(d, rng)
            try:
                other = move(twin, diagrams, rng.choice(("stabilize", "coeff", "cancel_pairs")), rng)
            except CalculusError:
                other = None
            for b in (twin, other):
                if b is None or not diagram_iso(d, b):
                    continue
                x, y = diagrams.cancel_pushoff_pairs(d), diagrams.cancel_pushoff_pairs(b)
                assert diagram_iso(x, y) and diagram_iso(y, x)
                isos += 1
                cancelled += len(x) < len(d)
    assert isos > 500 and cancelled > 100, (isos, cancelled)


def reparenting_removal(rng):
    """Components and linkings where removing "X", a pushoff of "Y", moves
    its unstabilized pushoffs to Y, with knots before and between them
    that link X and Y differently, so X's slid row has entries below
    its children."""
    tb = rng.choice((1, 0, -1))
    comps = [LegendrianComponent("Y", RH_TREFOIL, None, RH_TREFOIL, tb, 0, None)]
    names = ["Y"]
    for k in range(rng.randrange(0, 3)):
        comps.append(LegendrianComponent(f"v{k}", UNKNOT, None, UNKNOT, -1, 0, None))
        names.append(f"v{k}")
    comps.append(LegendrianComponent("X", PUSHOFF, "Y", RH_TREFOIL, tb, 0, SurgeryCoeff(-1)))
    children = []
    for k in range(rng.randrange(4, 9)):
        if rng.random() < 0.4:
            cid, parent = f"x{k}", "X"
            children.append(cid)
            comps.append(LegendrianComponent(cid, PUSHOFF, "X", RH_TREFOIL, tb, 0, SurgeryCoeff(1)))
        elif rng.random() < 0.5:
            cid, parent = f"w{k}", rng.choice(names)
            smooth = comps[[c.cid for c in comps].index(parent)].smooth_type
            comps.append(LegendrianComponent(cid, PUSHOFF, parent, smooth, -3, 0, None))
        else:
            cid = f"u{k}"
            comps.append(LegendrianComponent(cid, UNKNOT, None, UNKNOT, -1, 0, None))
        names.append(cid)
    ids = [c.cid for c in comps]
    pairs = {}
    for a in range(len(ids)):
        for b in range(a):
            if rng.random() < 0.4:
                pairs[frozenset((ids[a], ids[b]))] = rng.randrange(-2, 3)
    for cid in ["X"] + children:
        pairs[frozenset((cid, "Y" if cid == "X" else "X"))] = tb
    return comps, pairs


def test_removal_through_a_slid_row_matches_the_reference():
    rng = random.Random(1604)
    reparented = 0
    for _ in range(300):
        new, old = both(*reparenting_removal(rng))
        got, want = diagrams.remove_component(new, "X"), ref.remove_component(old, "X")
        assert_match(got, want, rng)
        reparented += sum(c.parent == "Y" for c in got.components)
    assert reparented > 300


def acyclic_diagram(rng):
    """Components with random kinds, parents that lead to a root, tb and
    rot within the Bennequin bound, random coefficients and linkings, in
    a random parents-first order."""
    n = rng.randrange(0, 9)
    comps, smooth = [], {}
    for i in range(n):
        cid = f"k{i}"
        if i and rng.random() < 0.6:
            parent = f"k{rng.randrange(i)}"
            kind, smooth[cid] = PUSHOFF, smooth[parent]
        else:
            parent, kind = None, rng.choice((UNKNOT, RH_TREFOIL))
            smooth[cid] = kind
        bound = -1 if smooth[cid] == UNKNOT else 1
        rot = rng.randrange(-2, 3)
        tb = bound - abs(rot) - rng.randrange(3)
        coeff = rng.choice((None, SurgeryCoeff(-1), SurgeryCoeff(1), SurgeryCoeff(-5, 3)))
        comps.append(LegendrianComponent(cid, kind, parent, smooth[cid], tb, rot, coeff))
    pairs = {}
    for _ in range(rng.randrange(0, 2 * n + 1) if n > 1 else 0):
        a, b = rng.sample(range(n), 2)
        pairs[frozenset((f"k{a}", f"k{b}"))] = rng.randrange(-3, 4)
    return from_linkings(parents_first(comps, rng), pairs)


def test_every_acyclic_order_round_trips_through_json():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(st.integers(0, 2**32))
    def run(seed):
        d = acyclic_diagram(random.Random(seed))
        back = diagram_from_dict(diagram_to_dict(d))
        assert back == d and back.ids() == d.ids()

    run()


def test_stored_form_round_trips_through_json():
    # Random diagrams with deviations: ``from_stored`` reads back every
    # diagram from its stored entries, and the JSON form too, with the
    # reference's linkings.  The same JSON with a pushoff moved in front of
    # its parent is refused at that pushoff's type.
    rng = random.Random(1901)
    seen = {"deviations": 0, "moved in front": 0}
    for _ in range(400):
        comps, pairs = random_components(rng)
        new, old = both(comps, pairs)
        assert ContactDiagram.from_stored(new.components, new.stored_entries()) == new
        data = json.loads(json.dumps(diagram_to_dict(new)))
        seen["deviations"] += "deviations" in data
        back = diagram_from_dict(data)
        assert back == new and back.ids() == new.ids()
        assert back.linking_rows() == old.linking_rows()
        pushoffs = [i for i, c in enumerate(comps) if c.kind == PUSHOFF]
        if pushoffs:
            i = rng.choice(pushoffs)
            p = new._pos[comps[i].parent]
            data["components"].insert(p, data["components"].pop(i))
            with pytest.raises(ParseError) as err:
                diagram_from_dict(data)
            assert err.value.location == f"diagram.components[{p}].type"
            assert err.value.reason == (
                f"pushoff parent {comps[i].parent!r} is not listed before it"
            )
            seen["moved in front"] += 1
    assert min(seen.values()) > 20, seen


def nested_pushoffs(rng):
    """Diagrams of pushoffs of pushoffs at +1 and -1, some stabilized,
    listed in creation order or another parents-first order: pairs sit
    inside pairs, so a cancellation can hand a (-1)-knot a new cancelling
    pushoff."""
    d = diagrams.empty_diagram()
    for _ in range(rng.randrange(1, 3)):
        d = rng.choice((diagrams.add_trefoil, diagrams.add_unknot))(d, coeff=SurgeryCoeff(-1))[0]
    for _ in range(rng.randrange(2, 12)):
        cid = rng.choice(d.ids())
        if rng.random() < 0.15:
            d = diagrams.stabilize(d, cid, rng.choice((1, -1)))
        else:
            d = diagrams.contact_pushoff(d, cid, SurgeryCoeff(rng.choice((1, -1, -1))))[0]
    if rng.random() < 0.3:
        d = from_linkings(parents_first(d.components, rng), linking_pairs(d))
    return d


def test_cancel_pushoff_pairs_matches_the_rescan():
    rng = random.Random(1701)
    exposed = cancelled = 0
    for _ in range(600):
        d = nested_pushoffs(rng) if rng.random() < 0.8 else from_linkings(*random_components(rng))
        got = diagrams.cancel_pushoff_pairs(d)
        want = ref.cancel_pushoff_pairs(d, diagrams.remove_component)
        assert got == want and got.ids() == want.ids()
        cancelled += len(d) > len(got)
        # More pairs cancel than d holds: a cancellation exposed a pair.
        exposed += _pairs(d) < (len(d) - len(got)) // 2
    assert cancelled > 300 and exposed > 20


def _pairs(d):
    """The (-1)-knots of d that a pushoff of theirs cancels against."""
    return sum(
        1
        for k in d.components
        if k.coeff == SurgeryCoeff(-1)
        and any(
            p.parent == k.cid and p.coeff == SurgeryCoeff(1)
            and p.tb == k.tb == d.linking(p.cid, k.cid)
            for p in d.components
        )
    )


def unit_fraction_parent(rng):
    """A diagram where "X", a pushoff of "Y" carrying 1/k, splits into k
    unit pushoffs and is removed, with the cases that decide where those
    pushoffs end up: X stabilized after its creation, X deviating from the
    pushoff rule, X with children of its own, and knots between; returns
    the diagram, the ids of X and Y, and k."""
    tb = rng.choice((1, 0, -1))
    d, y = diagrams.add_trefoil(diagrams.empty_diagram(), tb=tb, coeff=SurgeryCoeff(-1))
    for _ in range(rng.randrange(0, 3)):
        d = diagrams.add_unknot(d, coeff=SurgeryCoeff(-1))[0]
    d, x = diagrams.contact_pushoff(d, y, SurgeryCoeff(-1))
    for _ in range(rng.randrange(0, 4)):
        kind = rng.random()
        if kind < 0.4:
            d = diagrams.contact_pushoff(d, x, SurgeryCoeff(rng.choice((1, -1))))[0]
        elif kind < 0.7:
            d = diagrams.add_unknot(d, coeff=SurgeryCoeff(-1))[0]
        else:
            d = diagrams.contact_pushoff(d, rng.choice(d.ids()), SurgeryCoeff(-1))[0]
    if rng.random() < 0.25:
        d = diagrams.stabilize(d, x, rng.choice((1, -1)))
    pairs = linking_pairs(d)
    if rng.random() < 0.4:
        z = rng.choice([cid for cid in d.ids() if cid != x])
        key = frozenset((x, z))
        pairs[key] = pairs.get(key, 0) + rng.choice((1, -1))
    comps = list(d.components)
    if rng.random() < 0.3:
        comps = parents_first(comps, rng)
    k = rng.randrange(1, 5)
    comps = [replace(c, coeff=SurgeryCoeff(1, k)) if c.cid == x else c for c in comps]
    return from_linkings(comps, pairs), x, y, k


def test_convert_positive_builds_pushoffs_on_their_final_parent(monkeypatch):
    rng = random.Random(1702)
    seen = {"fast": 0, "appended": 0, "stabilized": 0, "deviating": 0, "other children": 0}
    for _ in range(400):
        d, x, y, k = unit_fraction_parent(rng)
        # The path the move took before: append k pushoffs of X, then
        # remove X, which moves them on to Y or demotes them.
        appended = diagrams._unit_pushoffs(
            diagrams._Draft(d), d.component(x), k, x, diagrams._new_pushoff_row(d.component(x))
        ).frozen()
        # A construction is a checked knot or a copy ``_renamed`` makes.
        built = []
        checks, renamed = LegendrianComponent.__post_init__, LegendrianComponent._renamed
        monkeypatch.setattr(
            LegendrianComponent, "__post_init__", lambda self: (built.append(self.cid), checks(self))
        )
        monkeypatch.setattr(
            LegendrianComponent, "_renamed", lambda self, cid: (built.append(cid), renamed(self, cid))[1]
        )
        want = diagrams.remove_component(appended, x)
        old_count, built[:] = len(built) + k, []
        got = diagrams.convert_positive(d, x, k)
        monkeypatch.setattr(LegendrianComponent, "__post_init__", checks)
        monkeypatch.setattr(LegendrianComponent, "_renamed", renamed)
        assert got == want and got.ids() == want.ids()
        dense = reference_ContactDiagram(d.components, linking_pairs(d))
        assert_match(got, ref.convert_positive(dense, x, k), rng)
        fast = want.component(appended.components[-1].cid).parent == y
        seen["fast" if fast else "appended"] += 1
        # Built on Y, the pushoffs are constructed once each; X's other
        # children are restated by the removal either way.
        children = sum(c.parent == x for c in d.components)
        assert len(built) == (k + children if fast else old_count)
        seen["stabilized"] += d.component(x).tb != d.component(y).tb
        seen["deviating"] += any(v for cid, v in d._links[d._pos[x]].items() if cid != y)
        seen["other children"] += children > 0
    assert min(seen.values()) > 20, seen


def test_lower_linkings_list_only_nonzero_linkings():
    # A pushoff whose one stored entry is a deviation, not its parent
    # linking, can cancel the linking the rule gives; the rows a demoting
    # removal writes are read off these.  The JSON form writes the stored
    # entries, the deviation apart.
    y = LegendrianComponent("Y", RH_TREFOIL, None, RH_TREFOIL, 0, 0, None)
    x = LegendrianComponent("X", PUSHOFF, "Y", RH_TREFOIL, 0, 0, None)
    c = LegendrianComponent("C", PUSHOFF, "X", RH_TREFOIL, 0, 0, None)
    d = from_linkings((y, x, c), {frozenset(("X", "Y")): -1})
    assert d._links[2] == {"Y": 1}
    assert d.lower_linkings() == [{}, {0: -1}, {}]
    data = diagram_to_dict(d)
    assert data["linkings"] == [["Y", "X", -1]] and data["deviations"] == [["Y", "C", 1]]
    assert diagram_from_dict(data) == d
    rng = random.Random(1703)
    for _ in range(300):
        d = from_linkings(*random_components(rng))
        assert all(v for row in d.lower_linkings() for v in row.values())
