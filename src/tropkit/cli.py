"""The `tropkit` command-line front end.

One subcommand per module family, stable exact file formats, deterministic
byte-identical output. Exit status: 0 success, 1 domain errors (structured
JSON error body), 2 I/O or schema errors (diagnostic on stderr). `main`
alone maps exceptions to exit codes: a `TropkitError` gives 1, and a
`SchemaError` or an `OSError`, from reading, computing or writing, gives 2.
Any other exception, a plain `ValueError` among them, is an internal fault
and propagates. Every input file goes through `_load`, which turns a
load-time `ValueError` into a `SchemaError` led by the file's path, and
library checks of request data raise `SchemaError`. Each handler imports
the modules it uses, so a request loads only its own subcommand's modules
besides `io`, `errors` and `semiring`.
argparse owns the options: each leaf parser (one per `plucker` and
`traffic` action) takes only the options its handler reads, so a missing
option or another action's option exits 2 before any handler runs.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from . import io
from .errors import SchemaError, TooLarge, TropkitError
from .semiring import MAX_PLUS, MAX_TIMES, MIN_PLUS, parse_rational


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(out: Optional[str], text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load(path: str):
    """The JSON document in the file at path. A load-time ValueError (a file
    that is not UTF-8, malformed JSON, a number past the int/str digit
    limit) names the path, as an OSError's text already does."""
    try:
        return io.loads(_read(path))
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _load_matrix(path: str):
    return io.matrix_from_json(_load(path))


# Largest densities x steps x cells of a traffic diagram, and steps + bins of a tent
TRAFFIC_WORK_CAP = 10**7


def _densities(arg: str) -> Tuple[Fraction, Fraction, int]:
    """(lo, step, count) of `lo:hi:step`: the densities lo + k step <= hi."""
    try:
        lo_s, hi_s, step_s = arg.split(":")
        lo, hi, step = map(parse_rational, (lo_s, hi_s, step_s))
    except ValueError as exc:
        raise SchemaError(f"bad densities argument {arg!r}; want lo:hi:step") from exc
    if step <= 0:
        raise SchemaError("density step must be positive")
    return lo, step, max(0, (hi - lo) // step + 1)


def _at_least(value: int, least: int, option: str) -> int:
    if value < least:
        raise SchemaError(f"{option} must be at least {least}, not {value}")
    return value


def _vec_json(x) -> list:
    return io.vector_to_json(x)["data"]


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _over(m, command: str, *tags):
    if m.tag not in tags:
        names = " or ".join(t.value for t in tags)
        raise SchemaError(f"{command} needs a {names} matrix, not {m.tag.value}")
    return m


def _cmd_star(args) -> str:
    from . import tropmat

    a = _over(_load_matrix(args.matrix), "star", MAX_PLUS, MIN_PLUS)
    return io.dumps(io.matrix_to_json(tropmat.kleene_star(a)))


def _cmd_interval(args) -> str:
    from . import tropmat

    im = io.interval_matrix_from_json(_load(args.matrix))
    im = _over(im, "interval", MAX_PLUS, MIN_PLUS)
    return io.dumps(io.interval_matrix_to_json(tropmat.iv_kleene_star(im)))


def _cmd_eig(args) -> str:
    from . import spectral

    a = _over(_load_matrix(args.matrix), "eig", MAX_PLUS, MIN_PLUS)
    res = spectral.spectral_analysis(a)
    body = {
        "eigenvalue": io.scalar_to_json(res.eigenvalue),
        "critical_nodes": sorted(res.critical_nodes),
        "critical_edges": sorted([i, j] for i, j in res.critical_edges),
        "critical_classes": [sorted(c) for c in res.critical_classes],
        "eigenvectors": [_vec_json(v) for v in res.eigenvectors],
    }
    return io.dumps(body)


def _cmd_project(args) -> str:
    from . import projector

    m = _over(_load_matrix(args.module), "project", MAX_PLUS, MIN_PLUS, MAX_TIMES)
    v = projector.Semimodule(m)
    x = io.vector_from_json(_load(args.vector))
    return io.dumps(io.vector_to_json(projector.project(v, x)))


def _cmd_separate(args) -> str:
    from . import projector

    modules = [projector.Semimodule(_over(_load_matrix(p), "separate", MAX_PLUS)) for p in args.modules]
    rep = projector.cyclic_spectral_radius(modules)
    result = projector._separate(modules, rep)
    if isinstance(result, projector.NotSeparable):
        body = {
            "error": {
                "type": "NotSeparable",
                "message": "the semimodules share a nonzero point",
                "witness": _vec_json(result.witness),
            }
        }
        raise _DomainExit(io.dumps(body))
    body = {
        "separable": True,
        "radius": io.scalar_to_json(rep.value),
        "support_set": sorted(rep.support_set),
        "halfspaces": [{"u": _vec_json(h.u), "v": _vec_json(h.v)} for h in result],
    }
    return io.dumps(body)


def _cmd_twosided(args) -> str:
    from . import twosided

    a = _load_matrix(args.A)
    b = _load_matrix(args.B)
    gens = twosided.solve_system(twosided.InequalitySystem(a, b))
    return io.dumps(io.matrix_to_json(gens.generators))


def _cmd_invariants(args) -> str:
    from . import determ

    a = _load_matrix(args.matrix)
    bd = determ.bideterminant(a)
    body = {
        "bideterminant": {
            "plus": io.scalar_to_json(bd.plus),
            "minus": io.scalar_to_json(bd.minus),
        },
        "permanent": io.scalar_to_json(determ.permanent(a)),
        "rook_coefficients": [io.scalar_to_json(p) for p in determ.rook_coefficients(a)],
        "tropically_singular": determ.is_trop_singular(a),
        "pattern_singular": determ.is_pattern_singular(a),
    }
    return io.dumps(body)


def _cmd_plucker(args) -> str:
    from . import plucker

    if args.action == "check":
        f = io.subset_function_from_json(_load(args.function))
        tp = plucker.is_tp(f)
        dm = plucker.is_dmtp(f)
        body = {
            "is_tp": tp.ok,
            "tp_witness": list(tp.witness) if tp.witness else None,
            "is_dmtp": dm.ok,
            "dmtp_witness": list(dm.witness) if dm.witness else None,
            "submodular": plucker.is_submodular(f),
            "submodular_on_intervals": plucker.is_submodular(f, on_intervals_only=True),
        }
        return io.dumps(body)
    if args.action == "build":
        net = io.grid_net_from_json(_load(args.net))
        return io.dumps(io.subset_function_to_json(plucker.flow_tp(net)))
    f = plucker.reconstruct_from_intervals(*io.subset_values_from_json(_load(args.function)))
    return io.dumps(io.subset_function_to_json(f))


def _cmd_assign(args) -> str:
    from . import assign as assign_mod

    b = assign_mod.AssignMatrix(_over(_load_matrix(args.matrix), "assign", MAX_PLUS))
    res = assign_mod.strong_regularity(b)
    if isinstance(res, assign_mod.NotStronglyRegular):
        body = {
            "strongly_regular": False,
            "reason": res.reason,
            "best_bijection": list(res.best_bijection) if res.best_bijection else None,
            "second_bijection": list(res.second_bijection) if res.second_bijection else None,
        }
        return io.dumps(body)
    nf = assign_mod.normal_form(b, res)
    bt, phi, phit = assign_mod.distances_potentials(b, res.bijection)
    body = {
        "strongly_regular": True,
        "bijection": list(res.bijection),
        "f": [io.fraction_to_json(v) for v in res.f],
        "g": [io.fraction_to_json(v) for v in res.g],
        "normal_form": io.matrix_to_json(nf.data),
        "optimal_distances": io.matrix_to_json(bt),
        "potential": _vec_json(phi),
        "inverse_potential": _vec_json(phit),
    }
    return io.dumps(body)


def _traffic_builder(cfg: dict):
    """(builder, cells) of a network config."""
    from . import dynamics

    if not isinstance(cfg, dict):
        raise SchemaError("traffic config must be a JSON object")
    kind = cfg.get("kind")
    if kind == "single_road":
        m = cfg.get("m")
        if not isinstance(m, int) or m < 2:
            raise SchemaError("single_road config needs integer m >= 2")
        return dynamics.single_road_builder(m), m
    if kind == "crossing":
        n = cfg.get("n")
        if not isinstance(n, int) or n < 2:
            raise SchemaError("crossing config needs integer n >= 2")
        policy = cfg.get("policy", "priority")
        if policy not in ("priority", "fifty_fifty"):
            raise SchemaError(f"unknown policy {policy!r}")
        return dynamics.crossing_builder(n, policy), 2 * n
    raise SchemaError(f"unknown traffic config kind {cfg.get('kind')!r}")


def _cmd_traffic(args) -> str:
    from . import dynamics

    if args.action == "diagram":
        cfg = _load(args.config)
        build, cells = _traffic_builder(cfg)
        lo, step, count = _densities(args.densities)
        steps = _at_least(args.steps, 2, "--steps")
        if count * steps * cells > TRAFFIC_WORK_CAP:
            raise TooLarge(f"densities x steps x cells is {count * steps * cells}, above {TRAFFIC_WORK_CAP}")
        densities = [lo + k * step for k in range(count)]
        points = [
            (io.fraction_to_json(r), None if q is None else io.fraction_to_json(q))
            for r, q in dynamics.fundamental_diagram(build, densities, steps)
        ]
        if args.format == "json":
            return io.dumps([{"rho": r, "q": q} for r, q in points])
        lines = ["rho,q"] + [f"{r},{'NA' if q is None else q}" for r, q in points]
        return "\n".join(lines) + "\n"
    try:
        y0 = parse_rational(args.y0)
    except ValueError as exc:
        raise SchemaError(f"bad --y0 {args.y0!r}; want an exact rational") from exc
    steps = _at_least(args.steps, 1, "--steps")
    bins = _at_least(args.bins, 1, "--bins")
    if steps + bins > TRAFFIC_WORK_CAP:
        raise TooLarge(f"steps + bins is {steps + bins}, above {TRAFFIC_WORK_CAP}")
    *_, hist = dynamics._tent_cycle(y0, steps, bins)
    if args.format == "json":
        return io.dumps({"bins": bins, "counts": hist})
    lines = ["bin,count"]
    for i, c in enumerate(hist):
        lines.append(f"{i},{c}")
    return "\n".join(lines) + "\n"


class _DomainExit(Exception):
    """Carries a pre-rendered domain-error body (exit status 1)."""

    def __init__(self, body: str):
        super().__init__(body)
        self.body = body


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: `main` reuses it, since
    parsing builds a fresh namespace and leaves the parser unchanged. Every
    caller shares the one tree, so a caller may read it but must not change
    it (no `add_argument`, `set_defaults` or edits to its actions)."""
    p = argparse.ArgumentParser(
        prog="tropkit",
        description="exact idempotent/tropical mathematics toolkit",
        allow_abbrev=False,
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(parent, name, fn, **kwargs):
        """A leaf parser: it runs fn and is the only one that takes --out."""
        sp = parent.add_parser(name, allow_abbrev=False, **kwargs)
        sp.set_defaults(handler=fn)
        sp.add_argument("--out", help="output path (default stdout)")
        return sp

    sp = add(sub, "star", _cmd_star, help="Kleene star of a square matrix")
    sp.add_argument("--matrix", required=True)

    sp = add(sub, "interval", _cmd_interval, help="interval Kleene star, exact endpoints")
    sp.add_argument("--matrix", required=True, help="interval matrix JSON")

    sp = add(sub, "eig", _cmd_eig, help="cycle-mean eigenvalue, critical classes, eigenvectors")
    sp.add_argument("--matrix", required=True)

    sp = add(sub, "project", _cmd_project, help="project a vector onto a semimodule")
    sp.add_argument("--module", required=True, help="generator matrix JSON")
    sp.add_argument("--vector", required=True)

    sp = add(sub, "separate", _cmd_separate, help="separating halfspaces or a common point")
    sp.add_argument("--modules", required=True, nargs="+", help="generator matrix JSONs")

    sp = add(sub, "twosided", _cmd_twosided, help="generators of A x <= B x")
    sp.add_argument("--A", required=True)
    sp.add_argument("--B", required=True)

    sp = add(sub, "invariants", _cmd_invariants, help="bideterminant, permanent, rook, singularity")
    sp.add_argument("--matrix", required=True)

    plucker = sub.add_parser("plucker", allow_abbrev=False, help="TP/DMTP checking, flow build, reconstruction")
    actions = plucker.add_subparsers(dest="action", required=True)
    sp = add(actions, "check", _cmd_plucker, help="TP, DMTP and submodularity, with witnesses")
    sp.add_argument("--function", required=True, help="subset function JSON")
    sp = add(actions, "build", _cmd_plucker, help="the subset function of a grid flow net")
    sp.add_argument("--net", required=True, help="grid flow net JSON")
    sp = add(actions, "reconstruct", _cmd_plucker, help="a TP function from its interval values")
    sp.add_argument("--function", required=True, help="subset function JSON on intervals")

    sp = add(sub, "assign", _cmd_assign, help="strong regularity, normal form, potentials")
    sp.add_argument("--matrix", required=True)

    traffic = sub.add_parser("traffic", allow_abbrev=False, help="fundamental diagrams and tent histograms")
    actions = traffic.add_subparsers(dest="action", required=True)
    diagram = add(actions, "diagram", _cmd_traffic, help="fundamental diagram of a network")
    diagram.add_argument("--config", required=True, help="network config JSON")
    diagram.add_argument("--densities", required=True, help="lo:hi:step")
    tent = add(actions, "tent", _cmd_traffic, help="histogram of a tent-map orbit")
    tent.add_argument("--y0", required=True, help="exact rational start")
    tent.add_argument("--bins", type=int, default=100)
    for sp in (diagram, tent):
        sp.add_argument("--steps", type=int, default=4000)
        sp.add_argument("--format", choices=["json", "csv"], default="csv")

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            code, text = 0, args.handler(args)
        except _DomainExit as exc:
            code, text = 1, exc.body
        except TropkitError as exc:
            code, text = 1, io.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}})
        _write(args.out, text)
    except (SchemaError, OSError) as exc:
        print(f"tropkit: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
