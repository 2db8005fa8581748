"""A fixed reference computation that gauges the machine's speed of the moment.

The machines the benchmark runs on share their cores, and the same work
runs up to twice as slow for stretches from under a second to minutes.
Timed next to the work in CPU time, this computation slows down with it,
so a CPU time divided by the reference's, measured a moment earlier or
later, is far steadier than the time itself.

The computation is pure Python of the same kind as the package's: small
objects with ``__slots__``, dictionaries keyed by tuples and string ids,
sorting, a backtracking match, exact fractions, integer row reduction and
JSON text.  It calls nothing in ``tightcert``, so a change to the package
never changes it.

``NOMINAL_S`` is the reference's typical time on a shared 2-CPU Intel Xeon
virtual machine with Python 3.11.  A time scaled by ``NOMINAL_S / measured``
reads as the time the work would have taken there.
"""

from __future__ import annotations

import json
from fractions import Fraction
from time import thread_time

NOMINAL_S = 0.006


class _Knot:
    __slots__ = ("cid", "tb", "rot", "coeff")

    def __init__(self, cid, tb, rot, coeff):
        self.cid = cid
        self.tb = tb
        self.rot = rot
        self.coeff = coeff


def _diagram(n: int, twist: int):
    knots = [_Knot(f"k{i}", -1 - (i * twist) % 5, (i * 3) % 7 - 3,
                   Fraction(i % 4 - 2, 1 + i % 3)) for i in range(n)]
    links = {}
    for i in range(n):
        for j in range(i + 1, n):
            lk = (i * 7 + j * twist) % 5 - 2
            if lk:
                links[(knots[i].cid, knots[j].cid)] = lk
    return knots, links


def _signature(knots, links, k):
    row = sorted(v for (a, b), v in links.items() if k.cid in (a, b))
    return (k.tb, k.rot, k.coeff, tuple(row))


def _match(a, b):
    """Backtracking isomorphism of two diagrams, by signatures."""
    (ka, la), (kb, lb) = a, b
    sig_b = {k.cid: _signature(kb, lb, k) for k in kb}
    order = sorted(ka, key=lambda k: _signature(ka, la, k))
    mapping, used = {}, set()

    def lk(links, x, y):
        return links.get((x, y)) or links.get((y, x)) or 0

    def extend(i):
        if i == len(order):
            return True
        k = order[i]
        sig = _signature(ka, la, k)
        for c in kb:
            if c.cid in used or sig_b[c.cid] != sig:
                continue
            if all(lk(la, k.cid, x) == lk(lb, c.cid, mapping[x]) for x in mapping):
                mapping[k.cid] = c.cid
                used.add(c.cid)
                if extend(i + 1):
                    return True
                del mapping[k.cid]
                used.discard(c.cid)
        return False

    return extend(0)


def _reduce(links, ids, prime=1_000_003):
    """Row-reduce the linking matrix modulo a prime; returns its rank."""
    m = [[links.get((x, y)) or links.get((y, x)) or (2 if x == y else 0) for y in ids]
         for x in ids]
    rank = 0
    for col in range(len(ids)):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] % prime), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], -1, prime)
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col] * inv % prime
                m[r] = [(x - f * y) % prime for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def kernel() -> int:
    """One round of the reference computation; returns a checksum."""
    total = 0
    for twist in (1, 2):
        a = _diagram(20, twist)
        b = (list(reversed(a[0])), dict(reversed(a[1].items())))
        total += _match(a, b)
        total += _reduce(a[1], [k.cid for k in a[0]])
        s = sum((k.coeff for k in a[0]), Fraction(0))
        total += s.numerator + s.denominator
        doc = {
            "nodes": [{"id": k.cid, "tb": k.tb, "rot": k.rot, "coeff": str(k.coeff)}
                      for k in a[0]],
            "linkings": [[x, y, v] for (x, y), v in a[1].items()],
        }
        total += len(json.loads(json.dumps(doc, indent=2))["linkings"])
    return total


def measure() -> float:
    """CPU seconds one round of the reference computation takes now: the
    faster of two rounds back to back, so that one interrupt or a cache
    left cold by another process does not count."""
    times = []
    for _ in range(2):
        start = thread_time()
        kernel()
        times.append(thread_time() - start)
    return min(times)
