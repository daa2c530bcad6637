"""Fuzzed command lines: every ``solve`` and ``measure`` invocation built from
the ``--data``, ``--domain``, ``--cap``/``--axis`` and ``--point`` grammars
ends in exit 0, 2 or 3 (or argparse's own exit 2), never in an uncaught
exception.  Most drawn values are well formed, so the solvers run; the rest
are edge values (zero, NaN, infinities, huge or tiny numbers, wrong lengths,
stray text).  Derandomised, with ``solve --n=64`` fixed, so the suite stays
deterministic and quick; the cross-section operator and ``brownian`` are
left out for their cost.  What Hypothesis draws still depends on the
modules loaded (it mixes constants from loaded source into its strategies),
so the known edge cases run as fixed examples, each with its exit code.

Fuzzed ``--config`` files for ``solve``, ``measure`` and ``brownian`` end
the same way: a working config with some known keys set to values of the
wrong JSON type, maybe one unknown key, or a top-level value that is not an
object."""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from chordmean.cli import main

FUZZ = settings(derandomize=True, database=None, max_examples=300, deadline=None)

EDGE = st.sampled_from([0.0, -0.0, 1e-160, 2.0, -5.0, 1e308, -1e308,
                        math.nan, math.inf, -math.inf])
JUNK = st.text(alphabet=":,;=+.-0123456789abcehixyz", max_size=12)
BAD_TOKEN = st.sampled_from(["", "one", "1e", "--1", "0x1", "1,5", "="])


def _mostly(good, bad):
    """``good`` nine times in ten, ``bad`` otherwise."""
    return st.integers(0, 9).flatmap(lambda i: bad if i == 9 else good)


def _num(lo, hi):
    return _mostly(st.floats(lo, hi).map(repr), st.one_of(EDGE.map(repr), BAD_TOKEN))


def _vec(draw, dim, lo=-0.6, hi=0.6):
    size = draw(_mostly(st.just(dim), st.integers(1, 4)))
    return ",".join(draw(st.lists(_num(lo, hi), min_size=size, max_size=size)))


def _poly(draw, dim):
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        m = draw(_mostly(st.integers(0, 6), st.integers(-1, 10)))
        m_text = draw(_mostly(st.just(str(m)), BAD_TOKEN))
        if dim == 2:
            k = draw(_mostly(st.sampled_from(["re", "im"]), st.sampled_from(["x", "7"])))
        else:
            k = str(draw(_mostly(st.integers(-abs(m), abs(m)), st.integers(-12, 12))))
        terms.append(draw(_mostly(st.sampled_from([f"{m_text},{k}",
                                                   f"{m_text},{k},{draw(_num(-3, 3))}"]),
                                  st.sampled_from(["0", "1", "x", "y", "z"]))))
    return "+".join(terms)


def _cap(draw, dim):
    spec = f"axis={_vec(draw, dim, -1.0, 1.0)},half={draw(_num(0.05, 3.1))}"
    if draw(st.booleans()):
        spec += f",nappe={draw(st.sampled_from(['plus', 'minus', 'both', 'up']))}"
    return draw(_mostly(st.just(spec), JUNK))


def _data(draw, dim):
    return draw(_mostly(st.sampled_from([
        f"harm:{_poly(draw, dim)}",
        f"almansi:{_poly(draw, dim)};{_poly(draw, dim)}",
        f"cap:{_cap(draw, dim)}",
        f"arc:{draw(_num(-3, 3))},{draw(_num(-3, 6))}",
        f"const:{draw(_num(-3, 3))}",
    ]), JUNK))


def _domain(draw, dim):
    balls = ["ball", f"ball:{_vec(draw, dim, -0.2, 0.2)},{draw(_num(0.8, 2.0))}"]
    planar = [f"ellipse:{draw(_num(0.5, 2.0))},{draw(_num(0.5, 2.0))}",
              f"conformal:{draw(_num(0.01, 0.49))}"]
    return draw(_mostly(st.sampled_from(balls + planar if dim == 2 else balls), JUNK))


def _maybe(draw, flag, value):
    """``[--flag=value]`` nine times in ten, no flag otherwise."""
    return draw(_mostly(st.just([f"--{flag}={value}"]), st.just([])))


@st.composite
def solve_argv(draw):
    dim = draw(st.sampled_from([2, 3]))
    return ["solve", "--n=64",
            *_maybe(draw, "operator", draw(st.sampled_from(["harmonic", "biharmonic"]))),
            *_maybe(draw, "dim", dim),
            *_maybe(draw, "domain", _domain(draw, dim)),
            *_maybe(draw, "data", _data(draw, dim)),
            *_maybe(draw, "point", _vec(draw, dim))]


@st.composite
def measure_argv(draw):
    dim = draw(st.sampled_from([2, 3]))
    return ["measure", f"--check={draw(st.sampled_from(['cap', 'cone', 'com']))}",
            *_maybe(draw, "dim", dim),
            *_maybe(draw, "point", _vec(draw, dim)),
            *draw(st.sampled_from([
                [f"--axis={_vec(draw, dim, -1.0, 1.0)}"],
                [f"--cap={_cap(draw, dim)}"],
                [f"--arc={draw(_num(-3, 3))},{draw(_num(-3, 6))}"],
                []])),
            *_maybe(draw, "half-angle", draw(_num(0.05, 3.1))),
            *_maybe(draw, "nappe", draw(st.sampled_from(["plus", "minus", "both"])))]


def _run(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return main(argv)
        except SystemExit as exc:       # argparse rejecting the command line
            assert exc.code == 2, (argv, exc.code)
            return 2


CONE = ["measure", "--check=cone", "--dim=2", "--point=0.1,0.2"]
SECTION = ["solve", "--operator=cross-section", "--dim=3", "--data=harm:2,2",
           "--point=0.1,0.2,0.3"]
KNOWN_EXITS = [
    (["solve", "--n=64", "--dim=2", "--data=harm:2,re,inf", "--point=0.1,0.2"], 2),
    (["solve", "--n=64", "--dim=2", "--data=harm:2,re,nan", "--point=0.1,0.2"], 2),
    (["solve", "--n=64", "--dim=2", "--data=harm:6,re,1e308", "--point=0.5,0.5"], 3),
    (["solve", "--n=64", "--operator=biharmonic", "--dim=3",
      "--data=almansi:6,2,1e308;5,1,-1e308", "--point=0.1,0.2,0.3"], 3),
    (CONE + ["--axis=1e308,1e308", "--half-angle=0.7"], 0),
    (CONE + ["--axis=1e-160,1e-160", "--half-angle=0.7"], 0),
    (CONE + ["--axis=1,0", "--half-angle=1.5707963267948963"], 0),   # shared edge
    (CONE + ["--axis=1,0", "--half-angle=1.5707963267948966"], 2),   # pi/2
    (SECTION + ["--inner=0"], 2),
    (SECTION + ["--normal-n=0"], 2),
    (SECTION + ["--inner=100000000000000000000"], 2),
    (["solve", "--data=harm:2,re", "--point=0.1,0.2", "--n=100000000000000000000"], 2),
    (["solve", "--dim=3", "--data=harm:2,1", "--point=0.1,0.2,0.1",
      "--n=100000000000000000000"], 2),
    (["brownian", "--seed=18446744073709551616", "--point=0.1,0.2", "--arc=0,1"], 2),
    (["solve", "--scheme=mc", "--seed=18446744073709551616", "--data=harm:2,re",
      "--point=0.1,0.2"], 2),
    (["brownian", "--seed=7", "--point=0.1,0.2", "--arc=0,1",
      "--n=100000000000000000000000"], 2),
    (["hermite", "--m=4", "--a=-1", "--b=1e-320"], 3),          # (ab)^2 underflows
    (["hermite", "--m=4", "--a=-1e-200", "--b=1e-200"], 3),
]


def _with_known_exits(test):
    for argv, _ in KNOWN_EXITS:
        test = example(argv)(test)
    return test


@pytest.mark.filterwarnings("error::RuntimeWarning")   # numpy warnings reach users
@FUZZ
@given(st.one_of(solve_argv(), measure_argv()))
@_with_known_exits
def test_command_lines_exit_cleanly(argv):
    assert _run(argv) in (0, 2, 3), argv


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, code", KNOWN_EXITS)
def test_known_edge_cases_exit_codes(argv, code):
    assert _run(argv) == code


BASE_CONFIGS = {
    "solve": {"operator": "harmonic", "dim": 2, "domain": "ball", "data": "harm:2,re",
              "point": "0.3,-0.1", "n": 64, "scheme": "uniform", "format": "csv"},
    "measure": {"check": "cap", "dim": 2, "point": "0.1,0.2", "axis": "1,0",
                "half_angle": 0.7, "nappe": "plus", "format": "json"},
    "brownian": {"dim": 2, "point": "0.1,0.2", "arc": "0,1", "n": 1000, "seed": 7},
}
WRONG_TYPE = st.sampled_from(["abc", 300.5, [1, 2], {"a": 1}, True, None])
UNKNOWN_KEY = st.sampled_from(["bogus", "poi", "half", "Point", "", "data_"])
NOT_AN_OBJECT = st.sampled_from([[1, 2], [], "solve", 3, 0.5, None, True])


@st.composite
def config_file(draw):
    command = draw(st.sampled_from(sorted(BASE_CONFIGS)))
    cfg = dict(BASE_CONFIGS[command])
    for key in draw(st.lists(st.sampled_from(sorted(cfg)), max_size=3, unique=True)):
        cfg[key] = draw(WRONG_TYPE)
    if draw(st.booleans()):
        cfg[draw(UNKNOWN_KEY)] = draw(st.one_of(WRONG_TYPE, st.just(1)))
    return command, draw(_mostly(st.just(cfg), NOT_AN_OBJECT))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@FUZZ
@given(config_file())
def test_config_files_exit_cleanly(case):
    command, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        assert _run([command, "--config", path]) in (0, 2, 3), case
