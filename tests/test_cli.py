import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from chordmean.cli import main, parse_cap, parse_domain, parse_poly
from chordmean.geometry import StarDomain2D


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def parse_csv(out):
    lines = [l for l in out.strip().splitlines()]
    meta = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    header = body[0].split(",")
    import csv as _csv
    rows = list(_csv.reader(body[1:]))
    return meta, header, rows


def test_solve_harmonic_example(capsys):
    code, out = run_cli(["solve", "--operator", "harmonic", "--dim", "2",
                         "--data", "harm:2,re", "--point", "0.3,0.2",
                         "--n", "4096"], capsys)
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert meta[0].startswith("# tool: chordmean")
    row = dict(zip(header, rows[0]))
    assert abs(float(row["value"]) - 0.05) <= 1e-8
    assert float(row["residual"]) <= 1e-8
    assert row["flag"] == ""
    # 17 significant digits round-trip
    assert float(row["value"]) == float(f"{float(row['value']):.17g}")


def test_solve_biharmonic_example(capsys):
    code, out = run_cli(["solve", "--operator", "biharmonic", "--dim", "2",
                         "--data", "almansi:0;x", "--point", "0.3,0"], capsys)
    assert code == 0
    _, header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert abs(float(row["value"]) + 0.273) <= 1e-6


def test_solve_ellipse_flags_nonball(capsys):
    code, out = run_cli(["solve", "--operator", "harmonic",
                         "--domain", "ellipse:1.5,1", "--data", "harm:2,re",
                         "--point", "0.5,0"], capsys)
    assert code == 0
    _, header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert row["flag"] == "NONBALL"
    assert float(row["residual"]) > 1e-3


def test_solve_cross_section(capsys):
    code, out = run_cli(["solve", "--operator", "cross-section", "--dim", "3",
                         "--data", "harm:2,2", "--point", "0.3,0.2,0.1",
                         "--normal-n", "8", "--inner", "128"], capsys)
    assert code == 0
    _, header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert abs(float(row["value"]) - float(row["oracle"])) <= 1e-6


def test_measure_cone_example(capsys):
    code, out = run_cli(["measure", "--check", "cone", "--dim", "2",
                         "--point", "0.5,0",
                         "--half-angle", "0.7853981633974483"], capsys)
    assert code == 0
    _, header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert abs(float(row["lhs"]) - 0.5) <= 2e-3
    assert float(row["rhs"]) == 0.5


def test_measure_star_angle_example(capsys):
    argv = ["measure", "--check", "star-angle", "--a", "0.4",
            "--arc", "0,1.5707963267948966"]
    code, out = run_cli(argv, capsys)
    assert code == 0
    _, header, rows = parse_csv(out)
    assert float(rows[0][4]) <= 1e-8
    # one name per check: the old alias is not a choice
    assert _exit_code(["measure", "--check", "prop81"] + argv[3:]) == 2


def test_measure_moment_example(capsys):
    code, out = run_cli(["measure", "--check", "moment", "--w", "0.4",
                         "--degree", "2"], capsys)
    assert code == 0
    _, header, rows = parse_csv(out)
    lhs = complex(rows[0][2])
    assert abs(lhs - 0.08) <= 1e-8


def test_hermite_examples(capsys):
    code, out = run_cli(["hermite", "--m", "4,5", "--a", "-0.5", "--b", "1.5"],
                        capsys)
    assert code == 0
    _, header, rows = parse_csv(out)
    table = {int(r[0]): (float(r[3]), float(r[4])) for r in rows}
    assert table[4] == (-0.5625, -1.0)
    assert table[5] == (-1.125, -2.0)
    code, out = run_cli(["hermite", "--m", "4", "--a", "-1", "--b", "1"], capsys)
    _, _, rows = parse_csv(out)
    assert float(rows[0][3]) == -1.0


def test_brownian_determinism(tmp_path, capsys):
    args = ["brownian", "--dim", "2", "--point", "0.5,0",
            "--arc", "-1.5707963267948966,1.5707963267948966",
            "--n", "2000", "--seed", "7"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    meta, header, rows = parse_csv(out1.read_text())
    assert {r[0] for r in rows} == {"full", "line"}
    for r in rows:
        assert abs(float(r[2]) - 0.795167) <= 0.05


def test_brownian_3d_symmetry(capsys):
    code, out = run_cli(["brownian", "--dim", "3", "--point", "0,0,0",
                         "--cap", "axis=0,0,1,half=1.5707963267948966,nappe=plus",
                         "--n", "2000", "--seed", "7"], capsys)
    assert code == 0
    _, header, rows = parse_csv(out)
    assert {r[0] for r in rows} == {"full", "plane", "line"}
    for r in rows:
        assert abs(float(r[2]) - 0.5) <= 0.05


def test_brownian_rim_switches_sampler_2d(capsys):
    code = main(["brownian", "--dim", "2", "--point", "0.9,0",
                 "--arc", "0,1.0", "--n", "2000", "--seed", "3"])
    captured = capsys.readouterr()
    assert code == 0
    assert "exact disk sampler" in captured.err


def test_brownian_rim_refused_3d(capsys):
    code = main(["brownian", "--dim", "3", "--point", "0.9,0,0",
                 "--cap", "axis=1,0,0,half=0.5,nappe=plus",
                 "--n", "2000", "--seed", "3"])
    assert code == 2


def test_json_output(tmp_path):
    out = tmp_path / "r.json"
    code = main(["solve", "--data", "harm:1,re", "--point", "0.4,0.1",
                 "--format", "json", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["tool"] == "chordmean"
    assert "config" in payload
    row = dict(zip(payload["columns"], payload["rows"][0]))
    assert abs(row["value"] - 0.4) <= 1e-10


def test_config_file_merge(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data": "harm:2,re", "point": "0.3,0.2",
                               "n": 512}))
    code, out = run_cli(["solve", "--config", str(cfg)], capsys)
    assert code == 0
    _, header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert row["nodes"] == "512"
    # flags override the file
    code, out = run_cli(["solve", "--config", str(cfg), "--n", "256"], capsys)
    _, header, rows = parse_csv(out)
    assert dict(zip(header, rows[0]))["nodes"] == "256"


def test_config_data_dict(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "data": {"dim": 2, "terms": [[2, "re", 1.0], [1, "im", 0.5]]},
        "point": "0.3,0.2"}))
    code, out = run_cli(["solve", "--config", str(cfg)], capsys)
    assert code == 0
    _, header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert abs(float(row["value"]) - (0.05 + 0.5 * 0.2)) <= 1e-8


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:           # argparse rejecting an option
        return exc.code


def _config(tmp_path, text) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("data, spec, value", [
    ({"dim": 2, "terms": [[2, "re"]]}, "harm:2,re", 0.05),
    ({"dim": 2, "terms": [[2, "re", 1e20]]}, "harm:2,re,1e20", 0.05e20),
    ({"dim": 2, "terms": []}, "harm:0", 0.0),
])
def test_structural_data_is_a_harm_spec(data, spec, value, tmp_path, capsys):
    cfg = _config(tmp_path, json.dumps({"data": data, "point": "0.3,0.2"}))
    code, out = run_cli(["solve", "--config", cfg], capsys)
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert json.loads(meta[1].removeprefix("# config: "))["data"] == spec
    assert abs(float(dict(zip(header, rows[0]))["value"]) - value) <= 1e-8 * max(1.0, value)


def test_structural_data_dim_must_match_the_point(tmp_path, capsys):
    cfg = _config(tmp_path, json.dumps({"data": {"dim": 3, "terms": [[2, 0]]},
                                        "point": "0.3,0.2"}))
    assert main(["solve", "--config", cfg]) == 2
    assert capsys.readouterr().err == "error: --point needs 3 coordinates\n"


_GOOD = '"data": "harm:2,re", "point": "0.3,0.2"'


@pytest.mark.parametrize("argv, text", [
    (["solve", "--operator=cross-section"], '{"normal_scheme": "bogus", %s}' % _GOOD),
    (["solve"], '{"n": "abc", %s}' % _GOOD),
    (["solve"], '{"seed": "x", %s}' % _GOOD),
    (["solve"], '{"n": 300.5, %s}' % _GOOD),
    (["solve"], '[1, 2]'),
    (["solve"], '{"bogus": 1, %s}' % _GOOD),
    (["solve"], '{"poi": "0.3,0.2", "data": "harm:2,re"}'),      # no abbreviations
    (["solve"], '{"format": "xml", %s}' % _GOOD),
    (["solve"], '{"data": {"dim": 2, "terms": 5}, "point": "0.3,0.2"}'),
    (["solve"], '{"data": "harm:2,re", '),
    (["hermite"], '{"m": 4, "a": -1, "b": 1, "degree": 2}'),
    (["measure"], '{"check": "cone", "point": "0.5,0", "half_angle": 0.5, '
                  '"backend": "poisson"}'),                    # --backend is gone
])
def test_bad_config_files_exit_2(argv, text, tmp_path, capsys):
    assert _exit_code(argv + ["--config", _config(tmp_path, text)]) == 2


@pytest.mark.parametrize("argv", [
    ["measure", "--check=moment", "--w=0.4", "--degree=2"],
    ["hermite", "--m=4", "--a=-1", "--b=1"],
])
def test_seed_only_where_it_is_read(argv, tmp_path, capsys):
    assert _exit_code(argv + ["--seed=3"]) == 2
    assert _exit_code(argv + ["--config", _config(tmp_path, '{"seed": 3}')]) == 2
    code, out = run_cli(argv, capsys)
    assert code == 0
    assert "seed" not in json.loads(parse_csv(out)[0][1].removeprefix("# config: "))


def test_check_may_come_from_the_config_file(tmp_path, capsys):
    cfg = _config(tmp_path, '{"check": "cap", "point": "0.1,0.2", "half_angle": 1}')
    code, out = run_cli(["measure", "--config", cfg], capsys)
    assert code == 0
    assert json.loads(parse_csv(out)[0][1].removeprefix("# config: "))["half_angle"] == 1.0


@pytest.mark.parametrize("argv", [
    ["solve", "--scheme=mc", "--seed=5", "--n=256", "--data=harm:2,re",
     "--point=0.3,-0.2"],
    ["measure", "--check=cap", "--point=0.1,0.2", "--cap=axis=1,0,half=1", "--n=64"],
    ["measure", "--check=cone", "--point=0.1,0.2", "--half-angle=0.7", "--n=64"],
    ["hermite", "--m=4,5", "--a=-0.5", "--b=1.5"],
    ["brownian", "--point=0.1,0,0", "--cap=axis=0,0,1,half=1", "--n=1000", "--seed=7"],
])
def test_echoed_config_reproduces_the_output(argv, tmp_path, capsys):
    code, out = run_cli(argv, capsys)
    assert code == 0
    cfg = _config(tmp_path, out.splitlines()[1].removeprefix("# config: "))
    code, again = run_cli([argv[0], "--config", cfg], capsys)
    assert code == 0
    assert again == out


def test_exit_codes(capsys):
    # config error: unknown domain
    assert main(["solve", "--domain", "square:1", "--data", "harm:1,re",
                 "--point", "0,0"]) == 2
    # numerical-domain error: biharmonic needs gradient data
    assert main(["solve", "--operator", "biharmonic", "--data", "cap:axis=1,0,half=0.5",
                 "--point", "0,0", "--n", "64"]) == 3
    # selftest failure propagates as 4 is covered in test_selftest_subset


@pytest.mark.parametrize("argv", [
    ["hermite", "--m=3", "--a=-0.5", "--b=1.5"],                      # BadDegree
    ["hermite", "--m=4", "--a=0.5", "--b=1.5"],                       # BadBracket
    ["measure", "--check=cone", "--point=0.1,0", "--axis=0,0", "--half-angle=1",
     "--n=64"],
    ["measure", "--check=cap", "--point=0.1,0", "--axis=0,0", "--half-angle=1",
     "--n=64"],
    ["solve", "--data=cap:axis=0,0,half=1", "--point=0.1,0", "--n=64"],
    ["solve", "--data=cap:axis=nan,0,half=1", "--point=0.1,0", "--n=64"],
    # domains the library refuses for these operators (BadParameter)
    ["solve", "--operator=biharmonic", "--domain=ellipse:1.5,1", "--data=almansi:0;x",
     "--point=0.1,0"],
    ["solve", "--operator=cross-section", "--domain=conformal:0.2", "--data=harm:1,re",
     "--point=0.1,0"],
])
def test_rejected_inputs_exit_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("data", ["harm:1,0,inf", "almansi:0,0;1,1,-inf",
                                  "almansi:1,0,nan;0,0"])
def test_non_finite_coefficients_exit_2(data, capsys):
    assert main(["solve", "--dim=3", f"--data={data}", "--point=0,0,0", "--n=64"]) == 2
    assert "non-finite coefficient" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("data", ["almansi:1,0,1e308+1,1,1e308;0,0",
                                  "almansi:0,0;0,0,1e308+0,0,1e308"])
def test_overflowing_data_is_a_numerical_error(data, capsys):
    # numpy's overflow and invalid-value warnings become exit 3
    assert main(["solve", "--operator=biharmonic", "--dim=3", f"--data={data}",
                 "--point=0.1,0,0", "--n=64"]) == 3
    assert capsys.readouterr().err.startswith("numerical error: ")


@pytest.mark.parametrize("check", ["cap", "cone", "com"])
def test_measure_without_point_names_the_flag(check, capsys):
    assert main(["measure", f"--check={check}", "--half-angle=1", "--n=64"]) == 2
    assert capsys.readouterr().err == "error: --point is required\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_axis_is_a_direction(capsys):
    rows = {}
    for axis in ("1e308,1e308", "1e-160,1e-160", "1e-170,1e-170", "1,1"):
        code, out = run_cli(["measure", "--check=cone", "--point=0.1,0",
                             f"--axis={axis}", "--half-angle=1", "--n=64"], capsys)
        assert code == 0
        rows[axis] = parse_csv(out)[2]
    for axis in ("1e308,1e308", "1e-160,1e-160", "1e-170,1e-170"):
        assert rows[axis] == rows["1,1"]


def test_tiny_cap_axis_is_a_direction(capsys):
    # a norm below sqrt(tiny) used to come out of the division off 1 by 6e-6
    rows = {}
    for axis in ("1e-160,1e-160", "1,1"):
        code, out = run_cli(["solve", f"--data=cap:axis={axis},half=1", "--point=0.1,0",
                             "--n=64"], capsys)
        assert code == 0
        rows[axis] = parse_csv(out)[2]
    assert rows["1e-160,1e-160"] == rows["1,1"]


def test_selftest_subset(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main(["selftest", "--criteria", "4,7", "--json", str(report)])
    captured = capsys.readouterr()
    assert code == 0
    assert "[PASS] criterion  4" in captured.out
    payload = json.loads(report.read_text())
    assert [c["criterion"] for c in payload["checks"]] == [4, 7]
    assert all(c["passed"] for c in payload["checks"])


def test_parse_helpers():
    poly = parse_poly(2, "2,re+1,im,0.5")
    assert abs(float(poly.value(np.array([0.3, 0.2]))) - (0.05 + 0.1)) <= 1e-14
    cap = parse_cap(3, "axis=0,0,2,half=0.7,nappe=minus", vertex=(0.0, 0.0, 0.0))
    assert cap.nappe == "minus"
    assert abs(np.linalg.norm(cap.axis) - 1.0) <= 1e-12
    dom = parse_domain(2, "conformal:0.4")
    assert isinstance(dom, StarDomain2D)
    assert dom.boundary_radius(0.0) == 1.8
    with pytest.raises(Exception):
        parse_poly(2, "nonsense")


@pytest.mark.parametrize("argv", [
    ["brownian", "--point=0.1,0", "--arc=0,1", "--n=1000"],          # no --seed
    ["measure", "--check=moment", "--w=0.2"],                         # no --degree
    ["solve", "--data=harm:a,re", "--point=0.1,0"],
    ["solve", "--dim=3", "--data=harm:2,x", "--point=0.1,0,0"],
    ["solve", "--data=const:one", "--point=0.1,0"],
    ["solve", "--data=const:nan", "--point=0.1,0"],
    ["measure", "--check=star-angle", "--arc=0,1"],                   # no --a
    ["brownian", "--seed=-1", "--point=0.1,0", "--arc=0,1", "--n=1000"],
    ["measure", "--check=cap", "--point=0.1,0", "--cap=axis=1,z,half=0.5"],
    ["hermite", "--m=four", "--a=-1", "--b=1"],
    ["solve", "--dim=2", "--data=harm:2,re", "--point=nan,0"],
    ["solve", "--dim=2", "--data=harm:2,re", "--point=0,inf"],
    ["solve", "--data=harm:2,re", "--point=0.1,0", "--n=0"],          # BadResolution
    ["solve", "--data=harm:2,xx", "--point=0.1,0"],                   # BadIndex
    ["solve", "--data=harm:9,re", "--point=0.1,0"],                   # UnsupportedDegree
    ["measure", "--check=moment", "--w=0.2", "--degree=99"],          # BadParameter
    ["solve", "--data=harm:2,re", "--point=2,0"],                     # PointNotInterior
    ["solve", "--data=harm:2,re", "--point=0.1,0", "--scheme=mc"],    # MissingSeed
    ["solve", "--dim=3", "--domain=ball:0,0,0,-1", "--data=harm:2,0",
     "--point=0.1,0,0"],                                              # BadParameter
    ["measure", "--check=cap", "--dim=3", "--point=0.1,0",
     "--half-angle=0.5"],                                             # DimMismatch
    ["measure", "--check=cap", "--point=0.1,0"],                      # no --half-angle
    ["measure", "--check=cap", "--point=0.1", "--half-angle=0.5"],    # 1-D: DimMismatch
    ["measure", "--check=moment", "--w=0.2", "--degree=3", "--n=4"],  # --n: cap/cone/com only
    ["measure", "--check=star-angle", "--a=0.25", "--arc=0,1", "--n=16"],
])
def test_config_errors_exit_2_without_traceback(argv):
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "chordmean", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
