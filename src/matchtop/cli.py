"""Command-line front end.

Data goes to stdout (JSON by default, a flat table with --format table);
diagnostics go to stderr.  Exit codes: 0 success (and verification Match),
1 usage or input error, 2 verification mismatch or anomaly.

Each subcommand is declared once, by the ``command`` helper of
``_build_parser``, which adds the input, output and prime flags it takes.
When the first argument names a subcommand, only that subcommand's parser
is built; otherwise (no arguments, ``-h``, an unknown command or a leading
option) all of them are.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog, complexes as cx, graphs as gr, manifold as mf, verify
from .errors import FormatError, MatchtopError
from .homology import betti_reduced


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _resolve_graph(args) -> gr.Graph:
    sources = [s for s in (args.graph6, args.edges, args.name) if s is not None]
    if len(sources) != 1:
        raise _UsageError("give exactly one of --graph6, --edges, --name")
    if args.graph6 is not None:
        return gr.from_graph6(args.graph6)
    if args.edges is not None:
        with open(args.edges, encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise FormatError(f"{args.edges} is not UTF-8 text: {exc}") from None
        return gr.parse_edge_list(text)
    return catalog.named_graph(args.name)


def _primes(args):
    ps = args.p or [2, 3]
    out = []
    for p in ps:
        if p not in out:
            out.append(p)
    return out


def _prime_pair(args):
    """The analysis prime and the cross-check prime (the same one when only
    one is given)."""
    ps = _primes(args)
    if len(ps) > 2:
        raise _UsageError(f"{args.command} takes at most two distinct --p")
    return ps[0], ps[-1]


def _flat(prefix, value, rows):
    if isinstance(value, dict):
        for k, v in value.items():
            _flat(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(value, list) and value and isinstance(value[0], dict):
        for i, v in enumerate(value):
            _flat(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, value))


def _emit(data: dict, args) -> None:
    text = json.dumps(data, indent=2)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if args.format == "table":
        rows = []
        _flat("", data, rows)
        width = max((len(k) for k, _ in rows), default=0)
        for k, v in rows:
            print(f"{k.ljust(width)}  {json.dumps(v)}")
    else:
        print(text)


def _graph_summary(g: gr.Graph) -> dict:
    return {
        "vertices": g.vertex_count,
        "edges": len(g.edges),
        "edge_list": [list(e) for e in g.edges],
        "graph6": gr.to_graph6(g),
        # null above the cap: every catalog graph still builds
        "canonical_graph6": gr.canonical_form(g).decode()
        if g.vertex_count <= gr.CANONICAL_VERTEX_CAP else None,
        "connected": gr.is_connected_graph(g),
        "has_isolated_vertices": g.has_isolated_vertices,
    }


def _cmd_build(args) -> int:
    g = _resolve_graph(args)
    if args.emit_graph6:
        print(gr.canonical_form(g).decode())
        return 0
    data = _graph_summary(g)
    M = cx.matching_complex(g)
    data["matching_complex"] = {
        "dimension": M.dimension,
        "f_vector": list(cx.f_vector(M).positive),
        "facets": [list(f) for f in M.facets()],
    }
    _emit(data, args)
    return 0


def _cmd_homology(args) -> int:
    g = _resolve_graph(args)
    M = cx.matching_complex(g)
    results = []
    for p in _primes(args):
        b = betti_reduced(M, p)
        results.append({"p": p, "betti": b.to_list()})
    fv = cx.f_vector(M)
    _emit({
        "graph6": gr.to_graph6(g),
        "complex_dimension": M.dimension,
        "f_vector": list(fv.positive),
        "euler_characteristic": fv.euler_characteristic(),
        "results": results,
    }, args)
    return 0


def _cmd_manifold(args) -> int:
    pair = _prime_pair(args)
    g = _resolve_graph(args)
    M = cx.matching_complex(g)
    data = mf.manifold_report(M, pair)
    data["graph6"] = gr.to_graph6(g)
    _emit(data, args)
    return 0


def _cmd_classify(args) -> int:
    pair = _prime_pair(args)
    g = _resolve_graph(args)
    M = cx.matching_complex(g)
    verdict = mf.check_manifold(M, pair[0])
    _emit({
        "graph6": gr.to_graph6(g),
        "status": verdict.status,
        "dimension": verdict.dimension,
        "class": str(mf.classify(M, verdict, pair)),
    }, args)
    return 0


def _cmd_predict(args) -> int:
    g = _resolve_graph(args)
    data = catalog.predict(g).to_dict()
    data["graph6"] = gr.to_graph6(g)
    _emit(data, args)
    return 0


def _cmd_catalog(args) -> int:
    rows = [(e.name, str(e.expected_class), e.graph, e.description)
            for e in catalog.exceptional_table()]
    rows += [(name, "Ball(2)", g, desc) for name, g, desc in catalog.disconnected_ball_table()]
    entries = [{
        "name": name,
        "class": klass,
        "vertices": g.vertex_count,
        "edges": len(g.edges),
        "graph6": gr.to_graph6(g),
        "description": desc,
    } for name, klass, g, desc in rows]
    _emit({"entries": entries, "names": catalog.catalog_names()}, args)
    return 0


def _cmd_verify(args) -> int:
    if args.p and len(args.p) > 1:
        raise _UsageError("verify takes one --p; use --cross-check-prime "
                          "for a second prime")
    spec = verify.SearchSpec(
        target=args.target,
        max_edges=args.max_edges,
        max_vertices=args.max_vertices,
        connected_only=args.connected,
        p=args.p[0] if args.p else 2,
        cross_check_prime=args.cross_check_prime,
        force=args.force,
    )
    report = verify.run_search(spec)
    _emit(report.to_dict(), args)
    if report.verdict != "Match" or report.anomalies:
        print(f"verdict: {report.verdict}", file=sys.stderr)
        return 2
    return 0


def _cmd_props(args) -> int:
    report = verify.property_suite(args.seed, args.trials)
    _emit(report, args)
    if report["failures"]:
        print(f"{len(report['failures'])} property failures", file=sys.stderr)
        return 2
    return 0


def _build_parser(only=None) -> _Parser:
    """The parser with the subcommand ``only`` alone when it names one,
    else with every subcommand."""
    # the docstring's last paragraph is about the code, not for --help
    parser = _Parser(prog="matchtop", description=__doc__.rsplit("\n\n", 1)[0])
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, fn, reads_graph=True, primes=False):
        """Declare a subcommand: the graph input flags when it reads a
        graph, the output flags, the repeatable --p when it takes primes.
        Returns its parser, or None when it is not the one to build."""
        if only not in (None, name):
            return None
        sp = subs.add_parser(name, help=summary)
        if reads_graph:
            sp.add_argument("--graph6", help="graph6 string")
            sp.add_argument("--edges", help="edge-list file: 'n m' then m lines 'u v'")
            sp.add_argument("--name", help="catalog graph name (see `catalog`)")
        sp.add_argument("--format", choices=("json", "table"), default="json")
        sp.add_argument("--out", help="also write the JSON report to this path")
        if primes:
            sp.add_argument("--p", type=int, action="append", help="prime (repeatable)")
        sp.set_defaults(fn=fn)
        return sp

    sp = command("build", "construct and inspect a graph", _cmd_build)
    if sp:
        sp.add_argument("--emit-graph6", action="store_true",
                        help="print only the canonical graph6 string")
    command("homology", "Betti numbers of the matching complex", _cmd_homology, primes=True)
    command("manifold", "manifold check and classification", _cmd_manifold, primes=True)
    command("classify", "classification label only", _cmd_classify, primes=True)
    command("predict", "closed-form prediction from the catalog", _cmd_predict)
    command("catalog", "list cataloged graphs", _cmd_catalog, reads_graph=False)

    sp = command("verify", "exhaustive search against the catalog", _cmd_verify,
                 reads_graph=False)
    if sp:
        sp.add_argument("--target", required=True,
                        help="|".join(verify.TARGETS))
        sp.add_argument("--max-edges", type=int, default=12)
        sp.add_argument("--max-vertices", type=int, default=10)
        sp.add_argument("--connected", action="store_true")
        sp.add_argument("--p", type=int, action="append",
                        help="the search prime (once; default 2)")
        sp.add_argument("--cross-check-prime", type=int, default=3)
        sp.add_argument("--force", action="store_true",
                        help="lift the edge/vertex runtime guard")

    sp = command("props", "randomized property suite", _cmd_props, reads_graph=False)
    if sp:
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--trials", type=int, default=200)

    if only is not None and not subs.choices:  # no subcommand is called that
        return _build_parser()
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (OSError, MatchtopError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
