"""Command-line interface.

Subcommands: convert, h1, det, count, ranks, triangle, certify, verify.
Exit codes: 0 success, 2 domain or input error (including a file that is
not readable JSON and an output path that cannot be written), 3
verification failure (including a JSON file that is not a well-formed
certificate).
All output is deterministic for a given invocation.

This module imports only the base layer (``errors``, ``rationals``) at
load time; each subcommand imports the layers it runs, so ``count``
loads ``diagrams``, ``h1`` and ``det`` of a slope add ``topology``,
``ranks`` and ``triangle`` add ``floer``, and only a file read or written
loads ``serialize``.  ``verify`` loads the kernel, ``tightcert.verify``,
and only ``certify`` loads the emitter, ``tightcert.certify``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import CalculusError, ParseError
from .rationals import SurgeryCoeff


# The map properties ``triangle`` reports, as named on TriangleSolution.
_MAP_PROPERTIES = (
    "f_injective", "f_surjective", "g_injective",
    "g_surjective", "h_injective", "h_surjective",
)


# Longest echoed text a reason prints: a reason can quote an input value
# of any length.
_CLIP = 200


def _clip(text) -> str:
    text = str(text)
    if len(text) <= _CLIP:
        return text
    return f"{text[:_CLIP]}... ({len(text) - _CLIP} more characters)"


def _emit(payload, path=None):
    if path:
        from . import serialize

        serialize.dump_json(payload, path)
    else:
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _normalized_from_args(args):
    """The normalized diagram of ``--slope`` or ``--diagram``."""
    from .diagrams import normalize_diagram, trefoil_surgery_diagram

    if args.slope is not None:
        return normalize_diagram(trefoil_surgery_diagram(SurgeryCoeff.parse(args.slope)))
    from . import serialize

    return normalize_diagram(
        serialize.diagram_file_from_dict(serialize.load_json(args.diagram))
    )


def _presentation_from_args(args):
    """A link file's framed link, reduced as given, or the normalized
    diagram of a slope or a diagram file, whose pushoffs ``h1`` and
    ``det_signed`` slide over their parents first."""
    if args.link is not None:
        from . import serialize

        return serialize.framed_link_from_dict(serialize.load_json(args.link))
    return _normalized_from_args(args)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_convert(args) -> int:
    from . import serialize

    normalized = _normalized_from_args(args)
    payload = serialize.diagram_file_to_dict(normalized)
    if args.json or args.out:
        _emit(payload, args.out)
        return 0
    for comp in normalized.components:
        parent = f" on {comp.parent}" if comp.parent else ""
        print(
            f"{comp.cid}: {comp.smooth_type}{parent} "
            f"tb {comp.tb} rot {comp.rot} coeff {comp.coeff}"
        )
    for a, b, v in payload["linkings"]:
        print(f"lk({a},{b}) = {v}")
    return 0


def _cmd_h1(args) -> int:
    from .topology import h1

    group = h1(_presentation_from_args(args))
    if args.json:
        _emit(
            {
                "free_rank": group.free_rank,
                "torsion": list(group.torsion),
                "order": group.order(),
                "cyclic": group.is_cyclic(),
            }
        )
        return 0
    parts = ["Z"] * group.free_rank + [f"Z/{t}" for t in group.torsion]
    print(" + ".join(parts) if parts else "0")
    print(f"order {group.order()}")
    return 0


def _cmd_det(args) -> int:
    from .topology import det_signed

    value = det_signed(_presentation_from_args(args))
    if args.json:
        _emit({"det": value})
    else:
        print(value)
    return 0


def _cmd_count(args) -> int:
    from .diagrams import count_presentations

    count = count_presentations(SurgeryCoeff.parse(args.coeff))
    if args.json:
        _emit({"coeff": args.coeff, "presentations": count})
    else:
        print(count)
    return 0


def _cmd_ranks(args) -> int:
    from .floer import base_facts, engine_triangles, propagate

    run = propagate(base_facts(), engine_triangles(args.max_k))
    if args.json or args.out:
        from . import serialize

        payload = serialize.rank_table_to_dict(run.db)
        payload["rounds"] = run.rounds
        payload["consistent"] = run.consistent
        if not run.consistent:
            payload["contradiction"] = run.contradiction.detail
        _emit(payload, args.out)
        return 0 if run.consistent else 3
    width = max(len(m.text()) for m, _ in run.db.items())
    for manifold, interval in run.db.items():
        print(f"{manifold.text():<{width}}  {interval}")
    if not run.consistent:
        print(f"contradiction: {run.contradiction.detail}")
        return 3
    return 0


def _cmd_triangle(args) -> int:
    from .floer import triangle_solve

    a, b, c = args.solve
    sol = triangle_solve(a, b, c)
    if args.json:
        payload = {
            "dims": list(sol.dims),
            "rank_f": sol.rank_f,
            "rank_g": sol.rank_g,
            "rank_h": sol.rank_h,
        }
        payload.update((name, getattr(sol, name)) for name in _MAP_PROPERTIES)
        _emit(payload)
        return 0
    print(f"dims ({a}, {b}, {c}): rank f = {sol.rank_f}, "
          f"rank g = {sol.rank_g}, rank h = {sol.rank_h}")
    flags = [name.replace("_", " ") for name in _MAP_PROPERTIES if getattr(sol, name)]
    print("; ".join(flags) if flags else "no map is injective or surjective")
    return 0


def _cmd_certify(args) -> int:
    from .certify import certify_tight
    from .verify import check_certificate
    from . import serialize

    slopes = [args.r] if args.r is not None else _read_batch(args.batch)
    failures = 0
    results = []
    for i, slope_text in enumerate(slopes):
        try:
            cert = certify_tight(SurgeryCoeff.parse(slope_text))
        except CalculusError as exc:
            failures += 1
            results.append({"slope": _clip(slope_text), "error": _clip(exc)})
            if not args.json:
                print(f"slope {_clip(slope_text)}: REFUSED ({_clip(exc)})")
            continue
        # The self-check reads the written form back, so it covers the
        # writer and the reader as well as the emitter.
        payload = serialize.certificate_to_dict(cert)
        try:
            verdict = check_certificate(serialize.certificate_from_dict(payload))
        except ParseError:
            verdict = False
        if args.emit:
            path = args.emit if len(slopes) == 1 else _numbered(args.emit, i)
            serialize.dump_json(payload, path)
        entry = {
            "slope": str(cert.slope),
            "conclusion": list(cert.conclusion),
            "steps": len(cert.steps),
            "engine_stage": cert.engine_stage,
            "verified": bool(verdict),
        }
        if args.json:
            entry["certificate"] = payload
            results.append(entry)
        else:
            print(f"slope {cert.slope}: TIGHT "
                  f"(steps {len(cert.steps)}, engine stage {cert.engine_stage}, "
                  f"verified {'yes' if verdict else 'NO'})")
            if args.trace:
                for step in cert.steps:
                    refs = ", ".join(f"{k}={v}" for k, v in step.refs)
                    print(f"  {step.rule}({refs}) => {step.gives[0]}({step.gives[1]})")
        if not verdict:
            failures += 1
    if args.json:
        _emit(results[0] if len(results) == 1 else results)
    return 2 if failures else 0


def _numbered(path: str, index: int) -> str:
    if "." in path.rsplit("/", 1)[-1]:
        head, _, tail = path.rpartition(".")
        return f"{head}.{index}.{tail}"
    return f"{path}.{index}"


def _read_batch(path: str) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ParseError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise ParseError(str(exc), location=path) from None
    slopes = []
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if line:
            slopes.append(line)
    return slopes


def _cmd_verify(args) -> int:
    from .verify import check_certificate
    from . import serialize

    data = serialize.load_json(args.certificate)
    try:
        cert = serialize.certificate_from_dict(data)
    except ParseError as exc:
        if args.json:
            _emit({"ok": False, "step": None, "reason": _clip(exc.reason),
                   "location": exc.location and _clip(exc.location)})
        else:
            print(f"certificate {args.certificate}: REJECTED: {_clip(exc)}")
        return 3
    verdict = check_certificate(cert)
    if args.json:
        payload = {
            "slope": str(cert.slope) if verdict.ok else _clip(cert.slope),
            "ok": verdict.ok,
        }
        if not verdict.ok:
            payload["step"] = verdict.step
            payload["reason"] = _clip(verdict.reason)
        _emit(payload)
    else:
        if verdict.ok:
            print(f"certificate for slope {cert.slope}: ACCEPTED")
        else:
            at = f" at step {verdict.step}" if verdict.step is not None else ""
            print(f"certificate for slope {_clip(cert.slope)}: "
                  f"REJECTED{at}: {_clip(verdict.reason)}")
    return 0 if verdict.ok else 3


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tightcert",
        description="Contact surgery calculus with machine-checkable "
        "tightness certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="normalize a presentation to +1/-1 coefficients")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--slope", help="trefoil surgery slope p/q, n or inf")
    src.add_argument("--diagram", help="diagram JSON file")
    p.add_argument("--out", help="write the normalized diagram JSON here")
    p.add_argument("--json", action="store_true", help="print JSON to stdout")
    p.set_defaults(func=_cmd_convert)

    for name, func, what in (
        ("h1", _cmd_h1, "first homology of a presentation"),
        ("det", _cmd_det, "signed determinant of the linking matrix"),
    ):
        p = sub.add_parser(name, help=what)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--slope", help="trefoil surgery slope p/q, n or inf")
        src.add_argument("--diagram", help="diagram JSON file")
        src.add_argument("--link", help="framed link JSON file")
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=func)

    p = sub.add_parser("count", help="count the +1/-1 presentations of a coefficient")
    p.add_argument("--coeff", required=True, help="surgery coefficient p/q, n or inf")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("ranks", help="propagate rank facts through the triangle families")
    p.add_argument("--max-k", type=int, default=10, help="deepest tower stage (default 10)")
    p.add_argument("--out", help="write the rank table JSON here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_ranks)

    p = sub.add_parser("triangle", help="solve the map ranks of an exact triangle")
    p.add_argument("--solve", nargs=3, type=int, required=True,
                   metavar=("A", "B", "C"), help="the three total dimensions")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_triangle)

    p = sub.add_parser("certify", help="emit and self-check a tightness certificate")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--r", help="trefoil surgery slope p/q, n or inf")
    src.add_argument("--batch", help="file with one slope per line")
    p.add_argument("--emit", help="write the certificate JSON here")
    p.add_argument("--trace", action="store_true", help="print every step")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("verify", help="independently check a certificate file")
    p.add_argument("certificate", help="certificate JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def _merge_negative_values(argv):
    """Join "--slope -3/2" into "--slope=-3/2" so argparse does not read
    the negative coefficient as an unknown flag."""
    value_flags = {"--slope", "--coeff", "--r"}
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if tok in value_flags and len(nxt) > 1 and nxt[0] == "-" and nxt[1].isdigit():
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_negative_values(list(argv)))
    try:
        return args.func(args)
    except CalculusError as exc:
        print(f"error: {_clip(exc)}", file=sys.stderr)
        return 2


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
