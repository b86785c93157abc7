"""The `tropkit` command-line front end.

One subcommand per module family, stable exact file formats, deterministic
byte-identical output. Exit status: 0 success, 1 domain errors (structured
JSON error body), 2 I/O or schema errors (diagnostic on stderr).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import List, Optional, Sequence

from . import assign as assign_mod
from . import determ, dynamics, io, plucker, projector, spectral, twosided, tropmat
from .errors import TropkitError
from .io import SchemaError
from .semiring import MAX_PLUS, MIN_PLUS


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc


def _write(out: Optional[str], text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_matrix(path: str) -> tropmat.TropMatrix:
    return io.matrix_from_json(io.loads(_read(path)))


def _densities(arg: str) -> List[Fraction]:
    try:
        lo_s, hi_s, step_s = arg.split(":")
        lo, hi, step = Fraction(lo_s), Fraction(hi_s), Fraction(step_s)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad densities argument {arg!r}; want lo:hi:step") from exc
    if step <= 0:
        raise SchemaError("density step must be positive")
    out = []
    d = lo
    while d <= hi:
        out.append(d)
        d += step
    return out


def _at_least(value: int, least: int, option: str) -> int:
    if value < least:
        raise SchemaError(f"{option} must be at least {least}, not {value}")
    return value


def _rat(v) -> object:
    return io.fraction_to_json(Fraction(v))


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


def _checked(build, m):
    """build(m), with a ValueError from its input checks reported as a schema error."""
    try:
        return build(m)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _cmd_star(args) -> str:
    a = _over(_load_matrix(args.matrix), "star", MAX_PLUS, MIN_PLUS)
    return io.dumps(io.matrix_to_json(tropmat.kleene_star(a)))


def _cmd_interval(args) -> str:
    im = io.interval_matrix_from_json(io.loads(_read(args.matrix)))
    im = _over(im, "interval", MAX_PLUS, MIN_PLUS)
    return io.dumps(io.interval_matrix_to_json(tropmat.iv_kleene_star(im)))


def _cmd_eig(args) -> str:
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
    v = _checked(projector.Semimodule, _load_matrix(args.module))
    x = io.vector_from_json(io.loads(_read(args.vector)))
    return io.dumps(io.vector_to_json(projector.project(v, x)))


def _cmd_separate(args) -> str:
    modules = [
        _checked(projector.Semimodule, _over(_load_matrix(p), "separate", MAX_PLUS))
        for p in args.modules
    ]
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
    a = _load_matrix(args.A)
    b = _load_matrix(args.B)
    gens = twosided.solve_system(twosided.InequalitySystem(a, b))
    return io.dumps(io.matrix_to_json(gens.generators))


def _cmd_invariants(args) -> str:
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
    if args.action == "check":
        f = io.subset_function_from_json(io.loads(_read(args.function)))
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
        net = io.grid_net_from_json(io.loads(_read(args.net)))
        return io.dumps(io.subset_function_to_json(plucker.flow_tp(net)))
    if args.action == "reconstruct":
        obj = io.loads(_read(args.function))
        mapping = io.subset_function_from_json(obj, partial=True)
        f = plucker.reconstruct_from_intervals(obj["n"], mapping)
        return io.dumps(io.subset_function_to_json(f))
    raise SchemaError(f"unknown plucker action {args.action!r}")


def _cmd_assign(args) -> str:
    b = _checked(assign_mod.AssignMatrix, _over(_load_matrix(args.matrix), "assign", MAX_PLUS))
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
        "f": [_rat(v) for v in res.f],
        "g": [_rat(v) for v in res.g],
        "normal_form": io.matrix_to_json(nf.data),
        "optimal_distances": io.matrix_to_json(bt),
        "potential": _vec_json(phi),
        "inverse_potential": _vec_json(phit),
    }
    return io.dumps(body)


def _traffic_builder(cfg: dict):
    if not isinstance(cfg, dict):
        raise SchemaError("traffic config must be a JSON object")
    kind = cfg.get("kind")
    if kind == "single_road":
        m = cfg.get("m")
        if not isinstance(m, int) or m < 2:
            raise SchemaError("single_road config needs integer m >= 2")
        return dynamics.single_road_builder(m)
    if kind == "crossing":
        n = cfg.get("n")
        if not isinstance(n, int) or n < 2:
            raise SchemaError("crossing config needs integer n >= 2")
        policy = cfg.get("policy", "priority")
        if policy not in ("priority", "fifty_fifty"):
            raise SchemaError(f"unknown policy {policy!r}")
        return dynamics.crossing_builder(n, policy)
    raise SchemaError(f"unknown traffic config kind {cfg.get('kind')!r}")


def _cmd_traffic(args) -> str:
    if args.action == "diagram":
        cfg = io.loads(_read(args.config))
        build = _traffic_builder(cfg)
        densities = _densities(args.densities)
        steps = _at_least(args.steps, 2, "--steps")

        def run(rho: Fraction):
            try:
                f, x0 = build(rho)
            except TropkitError:
                return rho, None
            try:
                _, lam = dynamics.hom_iterate(f, x0, steps)
                return rho, lam
            except dynamics.Diverged:
                return rho, None

        points = [run(rho) for rho in densities]
        if args.format == "json":
            return io.dumps(
                [
                    {"rho": _rat(r), "q": None if q is None else _rat(q)}
                    for r, q in points
                ]
            )
        lines = ["rho,q"]
        for r, q in points:
            lines.append(f"{_rat(r)},{'NA' if q is None else _rat(q)}")
        return "\n".join(lines) + "\n"
    if args.action == "tent":
        try:
            y0 = Fraction(args.y0)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad --y0 {args.y0!r}; want an exact rational") from exc
        steps = _at_least(args.steps, 1, "--steps")
        bins = _at_least(args.bins, 1, "--bins")
        _, hist = dynamics.tent_trajectory(y0, steps, bins=bins)
        if args.format == "json":
            return io.dumps({"bins": bins, "counts": hist})
        lines = ["bin,count"]
        for i, c in enumerate(hist):
            lines.append(f"{i},{c}")
        return "\n".join(lines) + "\n"
    raise SchemaError(f"unknown traffic action {args.action!r}")


class _DomainExit(Exception):
    """Carries a pre-rendered domain-error body (exit status 1)."""

    def __init__(self, body: str):
        super().__init__(body)
        self.body = body


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tropkit",
        description="exact idempotent/tropical mathematics toolkit",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(handler=fn)
        sp.add_argument("--out", help="output path (default stdout)")
        return sp

    sp = add("star", _cmd_star, help="Kleene star of a square matrix")
    sp.add_argument("--matrix", required=True)

    sp = add("interval", _cmd_interval, help="interval Kleene star, exact endpoints")
    sp.add_argument("--matrix", required=True, help="interval matrix JSON")

    sp = add("eig", _cmd_eig, help="cycle-mean eigenvalue, critical classes, eigenvectors")
    sp.add_argument("--matrix", required=True)

    sp = add("project", _cmd_project, help="project a vector onto a semimodule")
    sp.add_argument("--module", required=True, help="generator matrix JSON")
    sp.add_argument("--vector", required=True)

    sp = add("separate", _cmd_separate, help="separating halfspaces or a common point")
    sp.add_argument("--modules", required=True, nargs="+", help="generator matrix JSONs")

    sp = add("twosided", _cmd_twosided, help="generators of A x <= B x")
    sp.add_argument("--A", required=True)
    sp.add_argument("--B", required=True)

    sp = add("invariants", _cmd_invariants, help="bideterminant, permanent, rook, singularity")
    sp.add_argument("--matrix", required=True)

    sp = add("plucker", _cmd_plucker, help="TP/DMTP checking, flow build, reconstruction")
    sp.add_argument("action", choices=["check", "build", "reconstruct"])
    sp.add_argument("--function", help="subset function JSON (check, reconstruct)")
    sp.add_argument("--net", help="grid flow net JSON (build)")

    sp = add("assign", _cmd_assign, help="strong regularity, normal form, potentials")
    sp.add_argument("--matrix", required=True)

    sp = add("traffic", _cmd_traffic, help="fundamental diagrams and tent histograms")
    sp.add_argument("action", choices=["diagram", "tent"])
    sp.add_argument("--config", help="network config JSON (diagram)")
    sp.add_argument("--densities", help="lo:hi:step (diagram)")
    sp.add_argument("--steps", type=int, default=4000)
    sp.add_argument("--bins", type=int, default=100)
    sp.add_argument("--y0", help="exact rational start (tent)")
    sp.add_argument("--format", choices=["json", "csv"], default="csv")

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "traffic":
        if args.action == "diagram" and (not args.config or not args.densities):
            parser.error("traffic diagram needs --config and --densities")
        if args.action == "tent" and not args.y0:
            parser.error("traffic tent needs --y0")
    if args.command == "plucker":
        if args.action in ("check", "reconstruct") and not args.function:
            parser.error(f"plucker {args.action} needs --function")
        if args.action == "build" and not args.net:
            parser.error("plucker build needs --net")
    try:
        text = args.handler(args)
    except _DomainExit as exc:
        _write(args.out, exc.body)
        return 1
    except TropkitError as exc:
        body = io.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}})
        _write(args.out, body)
        return 1
    except SchemaError as exc:
        print(f"tropkit: {exc}", file=sys.stderr)
        return 2
    _write(args.out, text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
