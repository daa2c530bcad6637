"""Command-line front end: solve, measure, hermite, brownian, selftest.

Every output starts with a metadata block (tool version, effective config,
seed) so a run can be reproduced byte for byte.  Floats print with 17
significant digits.  Exit codes: 0 success, 2 config error (a bad option, or
an input the library rejects), 3 numerical error (NumericalError or a numpy
floating-point error), 4 selftest failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import __version__
from .errors import ChordMeanError, ConfigError, NumericalError
from .geometry import (MEASURE_RES_2D, MEASURE_RES_3D, SMOOTH_RES_2D, SMOOTH_RES_3D,
                       BallDomain, Ellipse2D, StarDomain2D, build_direction_quadrature,
                       point_norm)
from .boundary import (
    BoundaryData,
    CapSpec,
    HarmonicPolynomial,
    almansi_assemble,
    arc_cap,
    cap_indicator,
    constant_data,
)
from .poisson import cap_measure_poisson
from .averaging import cross_section_solve, solve_harmonic, solve_on_domain
from .biharmonic import hermite_monomial_at_zero, solve_biharmonic
from .measure import (
    cap_measure_ratio,
    center_of_mass_check,
    cone_identity_check,
    star_angle_measure_check,
    subtended_moment,
)
from .brownian import compare_exit_distributions
from . import selftest as selftest_mod

NONBALL_THRESHOLD = 1e-3


def _fmt(x) -> str:
    if isinstance(x, bool):
        return str(x)
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    if isinstance(x, complex):
        return f"{x.real:.17g}{x.imag:+.17g}j"
    if x is None:
        return ""
    return str(x)


def _floats(text: str, name: str, count: int | None = None) -> list[float]:
    try:
        vals = [float(t) for t in str(text).split(",") if t != ""]
    except ValueError as exc:
        raise ConfigError(f"could not parse {name}={text!r} as numbers") from exc
    if count is not None and len(vals) != count:
        raise ConfigError(f"{name} needs {count} comma-separated numbers")
    return vals


_TINY_NORM = math.sqrt(np.finfo(float).tiny)     # smaller norms lose bits


def _unit_axis(axis, what: str) -> np.ndarray:
    """``axis`` scaled to unit length; a zero or non-finite axis is a ConfigError.

    A finite, nonzero axis whose norm overflows or falls below _TINY_NORM is
    first divided by its largest |component|; other axes are normalised as
    given.
    """
    axis = np.asarray(axis, dtype=float)
    norm = point_norm(axis)
    if not _TINY_NORM <= norm < math.inf and np.isfinite(axis).all() and axis.any():
        axis = axis / np.abs(axis).max()
        norm = np.linalg.norm(axis)
    if not (math.isfinite(norm) and norm > 0.0):
        raise ConfigError(f"{what} must be a nonzero vector of finite length")
    return axis / norm


def _parse(convert, text: str, what: str):
    """``convert(text)``, with a malformed value reported as a ConfigError."""
    try:
        return convert(text)
    except ValueError as exc:
        raise ConfigError(f"{what}: cannot read {text!r} as {convert.__name__}") from exc


# ---------------------------------------------------------------------------
# Spec grammars (shared between flags and the JSON config)
# ---------------------------------------------------------------------------

def parse_poly(dim: int, spec: str) -> HarmonicPolynomial:
    """Mini grammar: '0' | term('+'term)*, term = alias | 'm,k[,coeff]'.

    Aliases: 1, x, y, z (z in 3-D only).
    """
    spec = spec.strip()
    if spec == "0":
        return HarmonicPolynomial.zero(dim)
    alias = {"1": (0, "re" if dim == 2 else 0),
             "x": (1, "re" if dim == 2 else 1),
             "y": (1, "im" if dim == 2 else -1)}
    if dim == 3:
        alias["z"] = (1, 0)
    terms = []
    for part in spec.split("+"):
        part = part.strip()
        if part in alias:
            m, k = alias[part]
            terms.append((m, k, 1.0))
            continue
        fields = part.split(",")
        if len(fields) not in (2, 3):
            raise ConfigError(f"bad polynomial term {part!r}")
        what = f"polynomial term {part!r}"
        m = _parse(int, fields[0], what)
        k = fields[1].strip() if dim == 2 else _parse(int, fields[1], what)
        coeff = _parse(float, fields[2], what) if len(fields) == 3 else 1.0
        terms.append((m, k, coeff))
    return HarmonicPolynomial(dim, terms)


def parse_cap(dim: int, spec: str, vertex) -> CapSpec:
    """'axis=0,0,1,half=1.5708,nappe=plus' with the vertex supplied by context."""
    fields: dict[str, list[str]] = {}
    key = None
    for token in spec.split(","):
        if "=" in token:
            key, first = token.split("=", 1)
            key = key.strip()
            fields[key] = [first]
        elif key is not None:
            fields[key].append(token)
        else:
            raise ConfigError(f"bad cap spec {spec!r}")
    if "axis" not in fields or "half" not in fields:
        raise ConfigError("cap spec needs axis=... and half=...")
    axis = np.array([_parse(float, v, "cap axis") for v in fields["axis"]])
    if axis.size != dim:
        raise ConfigError(f"cap axis needs {dim} components")
    axis = _unit_axis(axis, "cap axis")
    half = _parse(float, fields["half"][0], "cap half-angle")
    nappe = fields.get("nappe", ["plus"])[0].strip()
    return CapSpec(vertex=vertex, axis=axis, half_angle=half, nappe=nappe)


def parse_domain(dim: int, spec: str):
    spec = (spec or "ball").strip()
    if spec == "ball":
        return BallDomain(center=np.zeros(dim), radius=1.0)
    kind, _, rest = spec.partition(":")
    if kind == "ball":
        vals = _floats(rest, "domain")
        if len(vals) != dim + 1:
            raise ConfigError(f"ball spec needs {dim} center coords and a radius")
        return BallDomain(center=vals[:dim], radius=vals[dim])
    if kind == "ellipse":
        a, b = _floats(rest, "domain", 2)
        return Ellipse2D(center=(0.0, 0.0), semi_axes=(a, b))
    if kind == "conformal":
        (a,) = _floats(rest, "domain", 1)
        return StarDomain2D.conformal(a)
    raise ConfigError(f"unknown domain spec {spec!r}")


def parse_data(domain, spec: str, point) -> BoundaryData:
    """The data of ``spec``; a cap or arc indicator is built on ``domain``."""
    kind, _, rest = spec.partition(":")
    if kind == "harm":
        return parse_poly(domain.dim, rest).boundary_data()
    if kind == "almansi":
        h1_spec, _, h2_spec = rest.partition(";")
        if not h2_spec:
            raise ConfigError("almansi spec is 'almansi:<h1>;<h2>'")
        u = almansi_assemble(parse_poly(domain.dim, h1_spec), parse_poly(domain.dim, h2_spec))
        return u.boundary_data()
    if kind == "cap":
        return cap_indicator(parse_cap(domain.dim, rest, vertex=point), domain)
    if kind == "arc":
        t1, t2 = _floats(rest, "arc", 2)
        return cap_indicator(arc_cap(domain, point, t1, t2), domain)
    if kind == "const":
        (value,) = _floats(rest, "const", 1)
        return constant_data(value)
    raise ConfigError(f"unknown data spec {spec!r}")


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

_NOT_ECHOED = ("command", "func", "config", "output")


def emit(args, meta: dict, columns: list[str], rows: list[list]) -> None:
    """Write the metadata block, with every parsed option value as the
    effective config, and the rows."""
    meta = {"config": {k: v for k, v in vars(args).items()
                       if k not in _NOT_ECHOED and v is not None}, **meta}
    if args.format == "json":
        def cell(r):
            if r is None or isinstance(r, (str, bool, int)):
                return r
            if isinstance(r, (complex, np.complexfloating)) and not isinstance(r, float):
                return _fmt(r)
            return float(f"{float(r):.17g}")
        payload = {"tool": "chordmean", "version": __version__, **meta,
                   "columns": columns,
                   "rows": [[cell(r) for r in row] for row in rows]}
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buf = io.StringIO()
        buf.write(f"# tool: chordmean {__version__}\n")
        buf.write(f"# config: {json.dumps(meta.get('config', {}), sort_keys=True)}\n")
        seed = meta.get("seed")
        buf.write(f"# seed: {'' if seed is None else seed}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
        text = buf.getvalue()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

# What each command reads, by mode (see _mode): the options it needs, then the
# others.  Every command also reads --config, --output and --format.
_READS = {
    "solve --operator=harmonic": ("data point", "operator dim domain n scheme seed"),
    "solve --operator=biharmonic": ("data point", "operator dim domain n scheme seed"),
    "solve --operator=cross-section": ("data point", "operator dim domain normal-scheme "
                                       "normal-n inner inner-solver seed"),
    "measure": ("check", ""),
    "measure --check=cap": ("check point half-angle", "dim axis nappe"),
    "measure --check=cap with --arc": ("check point arc", "dim"),
    "measure --check=cap with --cap": ("check point cap", "dim"),
    "measure --check=cone": ("check point half-angle", "dim axis"),
    "measure --check=com": ("check point half-angle", "dim axis"),
    "measure --check=moment": ("check w degree", ""),
    "measure --check=star-angle": ("check a arc", ""),
    "hermite": ("m a b", ""),
    "brownian": ("point seed cap", "dim n"),
    "brownian with --arc": ("point seed arc", "dim n"),
    "brownian with --cap": ("point seed cap", "dim n"),
    "selftest": ("", "quick json"),
    "selftest --full": ("full", "json"),
    "selftest --criteria": ("criteria", "json"),
}


def _mode(args) -> str:
    """The row of _READS for args: the command, then what picks its mode."""
    mode = args.command
    if mode == "solve":
        mode += f" --operator={args.operator or 'harmonic'}"
    if getattr(args, "check", None) is not None:
        mode += f" --check={args.check}"
    if getattr(args, "criteria", None) is not None:
        mode += " --criteria"
    elif getattr(args, "full", None):
        mode += " --full"
    if mode in ("measure --check=cap", "brownian"):     # a cap from --arc, --cap or neither
        source = "arc" if args.arc is not None else "cap" if args.cap is not None else None
        mode += f" with --{source}" if source else ""
    return mode


def _check_reads(args) -> None:
    """Refuse a command line that lacks an option its mode needs, or gives
    one its mode does not read: the echoed config is what was read."""
    mode = _mode(args)
    needs, reads = (names.split() for names in _READS[mode])
    given = [dest.replace("_", "-") for dest, value in vars(args).items()
             if value is not None and dest not in ("command", "func")]
    for flag in needs:
        if flag not in given:
            raise ConfigError(f"--{flag} is required")
    for flag in given:
        if flag not in needs + reads + ["config", "output", "format"]:
            raise ConfigError(f"--{flag} does not apply to {mode}")


_SCHEMES = {"uniform": "uniform_angle_2d", "gauss": "gauss_product_3d",
            "mc": "monte_carlo", "design": "monte_carlo_design"}


def cmd_solve(args) -> int:
    point = _floats(args.point, "--point")
    dim = args.dim or len(point)
    if len(point) != dim:
        raise ConfigError(f"--point needs {dim} coordinates")
    domain = parse_domain(dim, args.domain)
    data = parse_data(domain, args.data, np.asarray(point))

    operator = args.operator or "harmonic"
    if operator != "cross-section":
        scheme = _SCHEMES[args.scheme or ("uniform" if dim == 2 else "gauss")]
        default_n = (MEASURE_RES_2D, MEASURE_RES_3D) if args.data[:4] in ("cap:", "arc:") \
            else (SMOOTH_RES_2D, SMOOTH_RES_3D)
        n = default_n[dim - 2] if args.n is None else args.n
        dq = build_direction_quadrature(dim, scheme, n, seed=args.seed)
    if operator == "harmonic":
        solve = solve_harmonic if isinstance(domain, BallDomain) else solve_on_domain
        result = solve(domain, data, point, dq)
    elif operator == "biharmonic":
        result = solve_biharmonic(domain, data, point, dq)
    else:
        ndq = build_direction_quadrature(3, _SCHEMES[args.normal_scheme or "gauss"],
                                         16 if args.normal_n is None else args.normal_n,
                                         seed=args.seed)
        result = cross_section_solve(domain, data, point, ndq,
                                     inner_resolution=512 if args.inner is None
                                     else args.inner,
                                     inner_solver=args.inner_solver or "poisson")

    flag = ""
    if not isinstance(domain, BallDomain) and result.residual is not None \
            and result.residual > NONBALL_THRESHOLD:
        flag = "NONBALL"
    row = list(point) + [result.value, result.oracle_value, result.residual,
                         result.report.error_estimate, result.report.nodes_used, flag]
    columns = [f"p{i}" for i in range(dim)] + \
        ["value", "oracle", "residual", "error_estimate", "nodes", "flag"]
    emit(args, {"seed": args.seed}, columns, [row])
    return 0


def _point_and_ball(args):
    """--point as a list and as an array checked to lie inside the unit ball
    of --dim (default: the point's length), and that ball."""
    point = _floats(args.point, "--point")
    ball = BallDomain(center=np.zeros(args.dim or len(point)), radius=1.0)
    return point, ball.require_interior(point), ball


def _axis(args, dim: int) -> np.ndarray:
    """--axis as a unit vector (default: the first coordinate axis)."""
    return _unit_axis(_floats(args.axis or "1," + "0," * (dim - 1), "--axis", dim),
                      "--axis")


def _cap(args, ball: BallDomain, p: np.ndarray) -> CapSpec:
    """The cap seen from p: of --arc, else --cap, else --axis, --half-angle, --nappe."""
    if args.arc is not None:
        return arc_cap(ball, p, *_floats(args.arc, "--arc", 2))
    if args.cap is not None:
        return parse_cap(ball.dim, args.cap, vertex=p)
    return CapSpec(vertex=p, axis=_axis(args, ball.dim), half_angle=args.half_angle,
                   nappe=args.nappe or "plus")


def cmd_measure(args) -> int:
    rows = []
    check = args.check
    if check in ("cap", "cone", "com"):
        point, p, ball = _point_and_ball(args)
        if check == "cap":
            cap = _cap(args, ball, p)
            report = cap_measure_poisson(ball, p, cap)   # defect: |rhs - lhs|
            rows.append(["cap", json.dumps({"point": point}), cap_measure_ratio(ball, p, cap),
                         report.value, report.error_estimate])
        else:
            axis = _axis(args, ball.dim)
            half = args.half_angle
            params = json.dumps({"point": point, "half_angle": half})
            if check == "cone":
                rows.append(["cone", params, *cone_identity_check(ball, p, axis, half)])
            else:
                _, offset = center_of_mass_check(ball, p, axis, half)
                rows.append(["com", params, offset, 0.0, offset])
    elif check == "moment":
        w_vals = _floats(args.w, "--w")
        w = complex(w_vals[0], w_vals[1] if len(w_vals) > 1 else 0.0)
        got = subtended_moment(w, args.degree)
        expected = 0.5 * ((0.0 if args.degree else 1.0) + w ** args.degree)
        rows.append(["moment", json.dumps({"w": args.w, "degree": args.degree}),
                     got, expected, abs(got - expected)])
    else:                                   # star-angle
        arc = _floats(args.arc, "--arc", 2)
        rows.append([check, json.dumps({"a": args.a, "arc": arc}),
                     *star_angle_measure_check(args.a, arc)])
    emit(args, {"seed": None}, ["check", "parameters", "lhs", "rhs", "defect"], rows)
    return 0


def cmd_hermite(args) -> int:
    ms = [_parse(int, v, "--m") for v in str(args.m).split(",")]
    a_vals = _floats(args.a, "--a")
    b_vals = _floats(args.b, "--b")
    rows = []
    for m in ms:
        for a in a_vals:
            for b in b_vals:
                c0, q = hermite_monomial_at_zero(m, a, b)
                rows.append([m, a, b, c0, q])
    emit(args, {"seed": None}, ["m", "a", "b", "c_at_zero", "q_value"], rows)
    return 0


def cmd_brownian(args) -> int:
    _, p, ball = _point_and_ball(args)
    cap = _cap(args, ball, p)
    report = compare_exit_distributions(ball, p, cap, args.n, seed=args.seed)
    rows = [[t.name, t.hits, t.frequency, t.std_error, t.sigma_vs_oracle]
            for t in report.travelers]
    meta = {"seed": args.seed, "oracle_measure": report.oracle_measure,
            "max_deviation_in_sigmas": report.max_deviation_in_sigmas}
    emit(args, meta, ["traveler", "hits", "frequency", "std_error",
                      "sigma_vs_oracle"], rows)
    return 0


def cmd_selftest(args) -> int:
    if args.criteria is not None:
        ids = tuple(_parse(int, v, "--criteria") for v in args.criteria.split(","))
        if not set(ids) <= set(selftest_mod.CHECKS):
            raise ConfigError(f"--criteria names criteria 1-{max(selftest_mod.CHECKS)}")
    else:
        ids = selftest_mod.FULL_IDS if args.full else selftest_mod.QUICK_IDS
    results = selftest_mod.run_checks(ids, verbose=True)
    if args.json:
        payload = {"tool": "chordmean", "version": __version__,
                   "checks": [{"criterion": r.criterion, "name": r.name,
                               "passed": bool(r.passed), "defect": float(r.defect),
                               "tolerance": float(r.tolerance),
                               "seconds": float(r.seconds),
                               "detail": r.detail} for r in results]}
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} checks passed")
    return 0 if n_fail == 0 else 4


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--output", help="output path (default stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="output format (default csv)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chordmean",
        description="Chord-averaging Dirichlet solvers and harmonic-measure checks "
                    "in disks and balls.")
    parser.add_argument("--version", action="version",
                        version=f"chordmean {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run a harmonic/biharmonic/cross-section solve")
    p.add_argument("--operator", choices=("harmonic", "biharmonic", "cross-section"),
                   default=None)
    p.add_argument("--dim", type=int, choices=(2, 3), default=None)
    p.add_argument("--domain", default=None,
                   help="ball | ball:cx,cy[,cz],R | ellipse:A,B | conformal:a")
    p.add_argument("--data", default=None,
                   help="harm:m,k[+...] | almansi:h1;h2 | cap:axis=..,half=..,"
                        "nappe=.. | arc:t1,t2 | const:v")
    p.add_argument("--point", default=None, help="interior point, comma separated")
    p.add_argument("--n", type=int, default=None,
                   help="direction count (2-D) or polar count (3-D)")
    p.add_argument("--scheme", choices=tuple(_SCHEMES), default=None)
    p.add_argument("--normal-scheme", dest="normal_scheme",
                   choices=("gauss", "mc", "design"), default=None)
    p.add_argument("--normal-n", dest="normal_n", type=int, default=None)
    p.add_argument("--inner", type=int, default=None,
                   help="cross-section inner boundary nodes")
    p.add_argument("--inner-solver", dest="inner_solver",
                   choices=("poisson", "chords"), default=None)
    _add_common(p)
    p.add_argument("--seed", type=int, default=None, help="RNG seed")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("measure", help="harmonic-measure identity checks")
    p.add_argument("--check",
                   choices=("cap", "cone", "com", "moment", "star-angle"),
                   help="star-angle checks the conformal star domain")
    p.add_argument("--dim", type=int, choices=(2, 3), default=None)
    p.add_argument("--point", default=None)
    p.add_argument("--axis", default=None)
    p.add_argument("--half-angle", dest="half_angle", type=float, default=None)
    p.add_argument("--nappe", choices=("plus", "minus", "both"), default=None)
    p.add_argument("--cap", default=None, help="axis=..,half=..,nappe=..")
    p.add_argument("--arc", default=None, help="t1,t2 (radians)")
    p.add_argument("--w", default=None, help="moment base point re[,im]")
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--a", type=float, default=None, help="conformal coefficient")
    # no check reads --n (the cap rules fit each cap); parsed so that a stale
    # --n is refused as not applying, like any other unread option
    p.add_argument("--n", type=int, default=None, help=argparse.SUPPRESS)
    _add_common(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("hermite", help="C_m(0) table over (m, a, b) grids")
    p.add_argument("--m", default=None, help="degree or comma list, 4..12")
    p.add_argument("--a", default=None, help="left node(s) < 0")
    p.add_argument("--b", default=None, help="right node(s) > 0")
    _add_common(p)
    p.set_defaults(func=cmd_hermite)

    p = sub.add_parser("brownian", help="three-traveler exit-distribution experiment")
    p.add_argument("--dim", type=int, choices=(2, 3), default=None)
    p.add_argument("--point", default=None)
    p.add_argument("--cap", default=None, help="axis=..,half=..,nappe=..")
    p.add_argument("--arc", default=None, help="t1,t2 (2-D boundary arc)")
    p.add_argument("--n", type=int, default=100000, help="samples per traveler")
    _add_common(p)
    p.add_argument("--seed", type=int, default=None, help="RNG seed")
    p.set_defaults(func=cmd_brownian)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--quick", action="store_true", default=None,
                   help="deterministic subset (criteria 1, 3, 4, 7, 11, 12)")
    p.add_argument("--full", action="store_true", default=None, help="all criteria 1-14")
    p.add_argument("--criteria", default=None, help="explicit comma list of criteria")
    p.add_argument("--json", default=None, help="write a JSON report here")
    p.set_defaults(func=cmd_selftest)
    return parser


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join '--opt -1.5,...' into '--opt=-1.5,...' so argparse accepts it."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok.startswith("--") and "=" not in tok and i + 1 < len(argv) \
                and argv[i + 1].startswith("-") and any(c.isdigit() for c in argv[i + 1]):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _text(value) -> str:
    """A JSON value as option text: a string as written, anything else as
    JSON, with 'e+' written 'e' (a '+' would split a harm: spec)."""
    return value if isinstance(value, str) else json.dumps(value).replace("e+", "e")


def _structural_data(data: dict) -> tuple[list[str], str]:
    """{"dim": d, "terms": [[m, k(, coeff)], ...]} as a --dim token (if d is
    given) and its harm: spec; no terms is the zero polynomial."""
    terms = data.get("terms")
    if set(data) - {"dim", "terms"} or not isinstance(terms, list) \
            or not all(isinstance(t, list) for t in terms):
        raise ConfigError('structural data is {"dim": d, "terms": [[m, k, coeff], ...]}')
    spec = "+".join(",".join(map(_text, t)) for t in terms) or "0"
    dim = [f"--dim={_text(data['dim'])}"] if "dim" in data else []
    return dim, f"harm:{spec}"


def _config_tokens(args) -> list[str]:
    """The --config file as '--key=value' tokens for the subcommand parser;
    a structural data form leads with its --dim."""
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file {args.config!r}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {args.config!r} must hold a JSON object")
    tokens = []
    for key, value in cfg.items():
        if key.replace("-", "_") not in vars(args):     # no abbreviations either
            raise ConfigError(f"unknown config key {key!r}")
        if key == "data" and isinstance(value, dict):
            dim, value = _structural_data(value)
            tokens[:0] = dim
        tokens.append(f"--{key.replace('_', '-')}={_text(value)}")
    return tokens


def main(argv=None) -> int:
    argv = _merge_negative_values(list(sys.argv[1:] if argv is None else argv))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None) is not None:
            # the file's options first, so the command line's own win
            i = argv.index(args.command) + 1
            args = parser.parse_args(argv[:i] + _config_tokens(args) + argv[i:])
        _check_reads(args)
        # an overflow or an invalid operation (huge polynomial coefficients)
        # is a numerical error, not a numpy warning
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except (NumericalError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except ChordMeanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
