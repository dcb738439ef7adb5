import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stdout
from types import ModuleType, SimpleNamespace

import numpy as np
import pytest

import chromaplane
from chromaplane import annulus, distgraph, hexcolor, solver
from chromaplane.cli import build_parser, main

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(*args, timeout=300):
    # the package's entry, python -m chromaplane, as README and CI start it
    proc = subprocess.run(
        [sys.executable, "-m", "chromaplane", *args],
        capture_output=True,
        text=True,
        cwd=PKG_ROOT,
        timeout=timeout,
    )
    return proc


def run_main(capsys, *args):
    """cli.main in-process: (exit code, stdout, stderr)."""
    rc = main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_package_holds_only_its_modules():
    # every name is imported from its module, so the package re-exports none
    public = {name: value for name, value in vars(chromaplane).items() if not name.startswith("_")}
    assert {"annulus", "distgraph", "eightcol", "geom", "hexcolor", "solver"} <= public.keys()
    assert [name for name, value in public.items() if not isinstance(value, ModuleType)] == []


def test_annulus_upper_csv():
    proc = run_cli("annulus-upper", "--k", "3")
    assert proc.returncode == 0
    assert proc.stdout == "k,s,b_max,binding\n3,9,1.28557522,gap\n"


def test_annulus_upper_json():
    proc = run_cli("annulus-upper", "--k", "8", "--format", "json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["s"] == 16
    assert payload["b_max"] == pytest.approx(math.sqrt(2 + math.sqrt(2)), abs=1e-9)


def test_annulus_upper_no_valid_b():
    proc = run_cli("annulus-upper", "--k", "2")
    assert proc.returncode == 0
    assert "no_valid_b" in proc.stdout


def test_annulus_lower_desk_scale():
    proc = run_cli("annulus-lower", "--case", "1", "--b", "1.35", "--k", "4", "--n", "65")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "case,b,points,k,eps,verdict,annulus_lower_bound,plane_lower_bound"
    fields = lines[1].split(",")
    assert fields[5] == "not_colorable"
    assert fields[7] == "7"


def test_annulus_lower_budget_exhausted_exit_code():
    proc = run_cli(
        "annulus-lower", "--case", "2", "--b", "1.48", "--k", "5", "--n", "95",
        "--budget", "0.05",
    )
    assert proc.returncode == 3
    assert "budget_exhausted" in proc.stderr
    assert proc.stdout == ""


def test_threshold_command():
    proc = run_cli(
        "threshold", "--case", "1", "--k", "4", "--n", "65",
        "--b-lo", "1.25", "--b-hi", "1.4", "--tol", "1e-3",
    )
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "case,k,n_override,tol,b_star"
    b_star = float(lines[1].split(",")[-1])
    assert 1.25 < b_star < 1.4


def test_threshold_bracket_invalid():
    proc = run_cli(
        "threshold", "--case", "1", "--k", "4", "--n", "65",
        "--b-lo", "1.05", "--b-hi", "1.1", "--tol", "1e-3",
    )
    assert proc.returncode == 2
    assert "bracket_invalid" in proc.stderr


def test_hex_table_small():
    proc = run_cli("hex-table", "--p-max", "2", "--q-max", "2")
    assert proc.returncode == 0
    assert proc.stdout == "b,n_colors,p,q\n1.32287566,7,1,2\n2,12,2,2\n"


def test_min_colors_points():
    proc = run_cli("min-colors", "--b-lo", "2.0", "--b-hi", "2.0", "--step", "0.1")
    assert proc.returncode == 0
    assert proc.stdout == "b,min_colors\n2,12\n"

    proc = run_cli("min-colors", "--b-lo", "1.01", "--b-hi", "1.01", "--step", "0.1")
    assert proc.stdout == "b,min_colors\n1.01,7\n"


def test_min_colors_stops_once_its_largest_b_is_covered(capsys, monkeypatch):
    # the reaches are computed in (n_colors, p, q) order and end once their
    # running maximum covers 1.4: of the 1,047,627 swept pairs, a few answer
    calls = []
    reach = hexcolor._reach
    monkeypatch.setattr(hexcolor, "_reach", lambda p, q: calls.append((p, q)) or reach(p, q))
    rc, out, _ = run_main(capsys, "min-colors", "--b-lo", "1.3", "--b-hi", "1.4",
                          "--search-max", "1446")
    assert (rc, out) == (0, "b,min_colors\n1.3,7\n1.4,9\n")
    assert 0 < len(calls) < 100


def test_min_colors_is_the_full_sweeps_answer(capsys):
    # the fewest colors at b: the least (n_colors, p, q) over every swept
    # pair whose reach is at least b - B_TOL, from a sweep that computes all
    reaches = sorted((p * p + p * q + q * q, p, q, hexcolor.hex_b_max(p, q))
                     for q in range(41) for p in range(q + 1) if (p, q) != (0, 0))
    grids = ((1.01, 3.0, 0.1), (1.3, 1.4, 0.1), (1.72, 1.74, 0.005), (2.0, 14.0, 0.5),
             (14.0, 60.0, 2.0))
    for search_max in range(41):
        for lo, hi, step in grids:
            rows = []
            for b in np.arange(lo, hi + step / 2, step):
                fewest = next((n for n, p, q, r in reaches if max(p, q) <= search_max
                               and r is not None and r >= float(b) - hexcolor.B_TOL), None)
                rows.append((b, fewest))
            rc, out, _ = run_main(capsys, "min-colors", "--b-lo", str(lo), "--b-hi", str(hi),
                                  "--step", str(step), "--search-max", str(search_max))
            assert (rc, out) == (0, hexcolor.min_colors_csv(rows)), (search_max, lo, hi)


# sha256 of the full-size outputs; the CSV and eight-opt ones as recorded in
# perfbench/expected.json
PINNED_STDOUT = [
    (("hex-table", "--p-max", "10", "--q-max", "10"),
     "756277c26e1e3d5dce05169d492f9f730c2102a4afefe016268bcc6195069562"),
    (("min-colors", "--b-lo", "1.3", "--b-hi", "14", "--step", "0.1"),
     "87700bee587eff91a7d25122a664b89f1bbecfbdeaba3b6298a4df863e4344fd"),
    (("hex-table", "--p-max", "10", "--q-max", "10", "--format", "json"),
     "7cf4d2096c86a697de7a151e71acc2f81748f071c6803e69df151c7a4945bac6"),
    (("min-colors", "--b-lo", "1.3", "--b-hi", "14", "--step", "0.1", "--format", "json"),
     "c6d7be438d53a042a2af5248f492d3de636d044f327d38bcb993a425846b8082"),
    (("eight-opt",),
     "703b43af05ea39bfdbc6b1b6893604aacc99904cba6188aa8a51f33e77aad334"),
]


@pytest.mark.parametrize(
    "args,digest", PINNED_STDOUT,
    ids=["hex-table", "min-colors", "hex-table-json", "min-colors-json", "eight-opt"],
)
def test_hex_commands_pinned_bytes(args, digest):
    proc = run_cli(*args)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


with open(os.path.join(PKG_ROOT, "perfbench", "expected.json")) as _fh:
    EXPECTED = json.load(_fh)
CASE2_EXPORTS = sorted(key for key in EXPECTED if key.startswith("export") and "--case 2" in key)
CASE2_LP = "export --what lp --case 2 --b 1.48 --k 4"


@pytest.mark.parametrize("key", CASE2_EXPORTS)
def test_case2_exports_pinned_bytes(key):
    proc = run_cli(*key.split())
    assert proc.returncode == 0
    data = proc.stdout.encode()
    assert len(data) == EXPECTED[key]["bytes"]
    assert hashlib.sha256(data).hexdigest() == EXPECTED[key]["sha256"]


# (bytes, sha256) of the three-circle exports, whose six circle-pair blocks
# the edge build merges; recorded before the build packed its edge keys
THREE_CIRCLE_EXPORTS = {
    "export --what dimacs --case 3 --b 1.72 --n 30 --k 5":
        (7700, "b8ccb365ffc555b1cf84536a8d052985984508290094da036682fdbc543c438d"),
    "export --what cnf --case 3 --b 1.72 --n 30 --k 5":
        (58479, "c534d21836b895d6208686bf047572baecd76cda8817c2b25ec0508061e27223"),
    "export --what lp --case 3 --b 1.72 --n 30 --k 5":
        (217521, "984f8405a985b5bb5567649e205b577711122bd78434a8fea55a8eb1d0a4d60b"),
    "export --what dimacs --case 4 --b 1.84 --n 30 --k 5":
        (9069, "7227d9f007a234f038ebbe8fe0ae911969ad59909eab70fc4f826fb921d8c301"),
    "export --what cnf --case 4 --b 1.84 --n 30 --k 5":
        (68415, "81d456e29a1c05a54d7a62fc633eb354657bd021d3649056fec2159ccdf8fed0"),
    "export --what lp --case 4 --b 1.84 --n 30 --k 5":
        (252801, "60d79921afe114081f224516394148ff0a577c9051d8b7c5deffcd27c2ac70bd"),
    "export --what dimacs --case 5 --b 2.02 --n 30 --k 5":
        (10539, "2e0e96b126f84c5c4d111caa05afb3f5c8f195ec590aebec2f7a81c6cf83e0b3"),
    "export --what cnf --case 5 --b 2.02 --n 30 --k 5":
        (79035, "d302f3af7dc8b09a39ebce0c568a2d7677f1686be56dc33c03546e4f4fbd49eb"),
    "export --what lp --case 5 --b 2.02 --n 30 --k 5":
        (290901, "e1f44c1dba6c90db833ab0ad392f4b5e064a50fc9a7d4cbeabed0ce662557070"),
}


@pytest.mark.parametrize("key", sorted(THREE_CIRCLE_EXPORTS))
def test_three_circle_exports_pinned_bytes(key, capsys):
    rc, out, err = run_main(capsys, *key.split())
    assert rc == 0 and err == ""
    data = out.encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == THREE_CIRCLE_EXPORTS[key]


class _WriteCounter(io.TextIOBase):
    """Stands in for stdout: hashes the text and records each write's length."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.sizes = []

    def writable(self):
        return True

    def write(self, s):
        self.sha.update(s.encode())
        self.sizes.append(len(s))
        return len(s)


def test_export_streams_in_bounded_writes(tmp_path):
    sink = _WriteCounter()
    tracemalloc.start()
    try:
        with redirect_stdout(sink):
            rc = main(CASE2_LP.split())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert sink.sha.hexdigest() == EXPECTED[CASE2_LP]["sha256"]
    assert len(sink.sizes) > 1 and max(sink.sizes) <= 1 << 20
    # half the 9.6 MB peak of building the 2 MB text as one string
    assert peak < 4.8e6
    out = tmp_path / "case2.lp"
    assert main(CASE2_LP.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sink.sha.hexdigest()


def test_export_failure_leaves_no_out_file(tmp_path, monkeypatch, capsys):
    def failing_chunks(graph, k):
        yield "Minimize\n"
        raise RuntimeError("export broke")

    monkeypatch.setattr(solver, "lp_chunks", failing_chunks)
    rc, out, err = run_main(capsys, *CASE2_LP.split(), "--out", str(tmp_path / "case2.lp"))
    assert rc == 4
    assert "export broke" in err and out == ""
    assert list(tmp_path.iterdir()) == []


def test_export_reader_closing_pipe_is_not_an_error():
    proc = subprocess.Popen(
        [sys.executable, "-m", "chromaplane", *CASE2_LP.split()],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=PKG_ROOT,
    )
    head = proc.stdout.read(20)
    proc.stdout.close()
    _, err = proc.communicate(timeout=300)
    assert head == b"Minimize\n obj: 1 y1 "
    assert proc.returncode == 0, err
    assert err == b""


# exact stdout of the one-record commands, None cells included
ONE_RECORD_STDOUT = [
    (("annulus-upper", "--k", "2"), "k,s,b_max,binding\n2,,,no_valid_b\n"),
    (("annulus-upper", "--k", "2", "--format", "json"),
     '{\n  "k": 2,\n  "s": null,\n  "b_max": null,\n  "binding": "no_valid_b"\n}\n'),
    (("annulus-upper", "--k", "3", "--s-max", "6"), "k,s,b_max,binding\n3,,,no_valid_b\n"),
    (("annulus-lower", "--case", "1", "--b", "1.35", "--k", "4", "--n", "65", "--format", "json"),
     '{\n  "case": 1,\n  "b": 1.35,\n  "points": 130,\n  "k": 4,\n'
     '  "eps": 3.500000000000001e-07,\n  "verdict": "not_colorable",\n'
     '  "annulus_lower_bound": 4,\n  "plane_lower_bound": 7\n}\n'),
    (("threshold", "--case", "1", "--k", "4", "--n", "65", "--b-lo", "1.25", "--b-hi", "1.4",
      "--tol", "1e-3", "--format", "json"),
     '{\n  "case": 1,\n  "k": 4,\n  "n_override": 65,\n  "tol": 0.001,\n'
     '  "b_star": 1.32646484375\n}\n'),
    (("eight-opt", "--format", "csv"),
     "b,x,y,active_constraints,slack_1,slack_2,slack_3,slack_4\n"
     "1.37542932,0.108194188,0.514884326,1;3;4,0,0.299988118,2.22044605e-16,-4.4408921e-16\n"),
]


@pytest.mark.parametrize(
    "args,stdout", ONE_RECORD_STDOUT,
    ids=["upper-csv", "upper-json", "upper-cap-1", "lower-json", "threshold-json", "eight-csv"],
)
def test_one_record_pinned_stdout(args, stdout):
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == stdout


# exact stdout of small tables: rows as JSON objects, None as an empty CSV cell
# and as null, a numpy grid float as its shortest repr, no rows as a header or []
TABLE_STDOUT = [
    (("hex-table", "--p-max", "2", "--q-max", "2", "--format", "json"),
     '[\n  {\n    "b": 1.3228756555322951,\n    "n_colors": 7,\n    "p": 1,\n    "q": 2\n  },\n'
     '  {\n    "b": 2.0,\n    "n_colors": 12,\n    "p": 2,\n    "q": 2\n  }\n]\n'),
    (("hex-table", "--p-max", "0", "--q-max", "0"), "b,n_colors,p,q\n"),
    (("hex-table", "--p-max", "0", "--q-max", "0", "--format", "json"), "[]\n"),
    (("min-colors", "--b-lo", "1.3", "--b-hi", "1.5", "--step", "0.1", "--search-max", "0"),
     "b,min_colors\n1.3,\n1.4,\n1.5,\n"),
    (("min-colors", "--b-lo", "1.3", "--b-hi", "1.5", "--step", "0.1", "--search-max", "0",
      "--format", "json"),
     '[\n  {\n    "b": 1.3,\n    "min_colors": null\n  },\n'
     '  {\n    "b": 1.4000000000000001,\n    "min_colors": null\n  },\n'
     '  {\n    "b": 1.5000000000000002,\n    "min_colors": null\n  }\n]\n'),
]


@pytest.mark.parametrize(
    "args,stdout", TABLE_STDOUT,
    ids=["hex-json", "hex-empty-csv", "hex-empty-json", "min-none-csv", "min-none-json"],
)
def test_table_pinned_stdout(args, stdout):
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == stdout


def test_eight_opt_json():
    proc = run_cli("eight-opt", "--tol", "1e-6")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["b"] == pytest.approx(1.37542, abs=1e-4)
    assert payload["x"] == pytest.approx(0.108194, abs=1e-2)
    assert payload["y"] == pytest.approx(0.514884, abs=1e-2)
    assert 1 in payload["active_constraints"] and 3 in payload["active_constraints"]
    assert payload["slacks"][1] >= 0.29


def test_eight_opt_bad_tol():
    proc = run_cli("eight-opt", "--tol", "0")
    assert proc.returncode == 2


def test_export_dimacs_and_out_file(tmp_path):
    out = tmp_path / "g.dimacs"
    proc = run_cli(
        "export", "--what", "dimacs", "--case", "1", "--b", "1.3", "--n", "6",
        "--out", str(out),
    )
    assert proc.returncode == 0
    assert proc.stdout == ""
    text = out.read_text()
    assert text.startswith("p edge 12 ")
    assert [p.name for p in tmp_path.iterdir()] == ["g.dimacs"]


def test_out_write_failure_leaves_no_temporary(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()
    proc = run_cli("annulus-upper", "--k", "3", "--out", str(target))
    assert proc.returncode == 2
    assert "--out" in proc.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert target.is_dir() and not any(target.iterdir())


def test_export_cnf_requires_k():
    proc = run_cli("export", "--what", "cnf", "--case", "1", "--b", "1.3", "--n", "6")
    assert proc.returncode == 2


def test_export_lp_from_config_json(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "circles": [{"n": 4, "r": 1.0001}, {"n": 4, "r": 1.2}],
        "b": 1.25,
        "eps": 0.0001,
    }))
    proc = run_cli("export", "--what", "lp", "--config", str(cfg), "--k", "3")
    assert proc.returncode == 0
    assert proc.stdout.startswith("Minimize")
    assert proc.stdout.rstrip().endswith("End")


# flags outside their range, each refused by its argparse type as "argument FLAG: ..."
RANGE_ERRORS = [
    (("min-colors", "--b-lo", "1.3", "--b-hi", "1.5", "--search-max", "-1"), "--search-max"),
    (("hex-table", "--p-max", "-1"), "--p-max"),
    (("hex-table", "--q-max", "-1"), "--q-max"),
    (("annulus-lower", "--case", "1", "--b", "1.3", "--k", "1"), "--k"),
    (("threshold", "--case", "1", "--k", "1", "--b-lo", "1.25", "--b-hi", "1.4"), "--k"),
    (("threshold", "--case", "1", "--k", "4", "--n", "65", "--b-lo", "1.25",
      "--b-hi", "1.4", "--tol", "nan"), "--tol"),
    (("threshold", "--case", "1", "--k", "4", "--n", "65", "--b-lo", "1.25",
      "--b-hi", "1.4", "--tol", "0"), "--tol"),
    # the graph flags are checked before any graph is built
    (("export", "--what", "dimacs", "--case", "1", "--b", "1.3", "--n", "0"), "--n"),
    (("export", "--what", "dimacs", "--case", "1", "--b", "0.9"), "--b"),
    (("export", "--what", "dimacs", "--case", "1", "--b", "1.3", "--eps", "nan"), "--eps"),
    (("annulus-lower", "--case", "1", "--b", "1.3", "--k", "4", "--n", "0"), "--n"),
    (("annulus-lower", "--case", "1", "--b", "nan", "--k", "4"), "--b"),
    (("annulus-lower", "--case", "1", "--b", "1.3", "--k", "4", "--eps", "0"), "--eps"),
    (("threshold", "--case", "1", "--k", "4", "--n", "0", "--b-lo", "1.25",
      "--b-hi", "1.4"), "--n"),
    # the radial scheme needs k >= 2
    (("annulus-upper", "--k", "0"), "--k"),
    (("annulus-upper", "--k", "1"), "--k"),
    # the min-colors grid: finite ends and step, b > 1, a positive step
    (("min-colors", "--b-lo", "1.3", "--b-hi", "nan"), "--b-hi"),
    (("min-colors", "--b-lo", "1.3", "--b-hi", "inf"), "--b-hi"),
    (("min-colors", "--b-lo", "nan", "--b-hi", "1.5"), "--b-lo"),
    (("min-colors", "--b-lo", "1.3", "--b-hi", "1.5", "--step", "inf"), "--step"),
    (("min-colors", "--b-lo", "1.3", "--b-hi", "1.5", "--step", "nan"), "--step"),
    (("min-colors", "--b-lo", "1.3", "--b-hi", "1.5", "--step", "0"), "--step"),
    (("min-colors", "--b-lo", "1.0", "--b-hi", "1.5"), "--b-lo"),
    (("threshold", "--case", "1", "--k", "4", "--n", "65", "--b-lo", "1.25",
      "--b-hi", "inf"), "--b-hi"),
    (("threshold", "--case", "1", "--k", "4", "--n", "65", "--b-lo", "nan",
      "--b-hi", "1.4"), "--b-lo"),
    # a budget is a finite number of seconds > 0
    (("annulus-lower", "--case", "1", "--b", "1.3", "--k", "4", "--budget", "nan"),
     "--budget"),
    (("annulus-lower", "--case", "1", "--b", "1.3", "--k", "4", "--budget", "0"),
     "--budget"),
    (("threshold", "--case", "1", "--k", "4", "--n", "65", "--b-lo", "1.25",
      "--b-hi", "1.4", "--budget", "inf"), "--budget"),
] + [
    # an export --k is at least 1
    (("export", "--what", what, "--case", "2", "--b", "1.48", "--n", "10", "--k", k), "--k")
    for what in ("cnf", "lp") for k in ("0", "-1")
]

# a flag that is not a number still reads as one of the type it names
NOT_A_NUMBER = [
    (("annulus-lower", "--case", "1", "--b", "1.3", "--k", "4", "--n", "x"),
     "argument --n: invalid int value: 'x'"),
    (("annulus-upper", "--k", "2.5"), "argument --k: invalid int value: '2.5'"),
    (("hex-table", "--p-max", "x"), "argument --p-max: invalid int value: 'x'"),
    (("min-colors", "--b-lo", "x", "--b-hi", "1.5"), "argument --b-lo: invalid float value: 'x'"),
    (("threshold", "--case", "1", "--k", "4", "--b-lo", "1.25", "--b-hi", "1.4",
      "--budget", "soon"), "argument --budget: invalid float value: 'soon'"),
]
PARSE_ERRORS = [(args, f"argument {flag}:") for args, flag in RANGE_ERRORS] + NOT_A_NUMBER


def test_range_errors_refused_by_the_parser(capsys):
    for args, message in PARSE_ERRORS:
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(list(args))
        assert exc.value.code == 2, args
        assert message in capsys.readouterr().err, args


def test_usage_errors(tmp_path, capsys):
    missing = str(tmp_path / "missing")
    cfg = tmp_path / "cfg.json"
    good = {"circles": [{"n": 4, "r": 1.0001}], "b": 1.25, "eps": 0.0001}
    cfg.write_text(json.dumps(good))
    # malformed --config files: each missing field, a wrong type, not an object;
    # n, r, b and eps must be JSON numbers, and true, false and strings are not
    two = [{"n": 6, "r": 1.1}, {"n": 6, "r": 1.2}]
    malformed = []
    for name, payload in [
        ("r", {**good, "circles": [{"n": 4}]}),
        ("n", {**good, "circles": [{"r": 1.0001}]}),
        ("b", {k: v for k, v in good.items() if k != "b"}),
        ("eps", {k: v for k, v in good.items() if k != "eps"}),
        ("circles", {k: v for k, v in good.items() if k != "circles"}),
        ("null", {**good, "b": None}),
        ("fraction", {**good, "circles": [{"n": 4.5, "r": 1.0001}]}),
        ("list", [good]),
        ("mixed", {"circles": [{"n": True, "r": "1.1"}, two[1]], "b": "1.5", "eps": False}),
        ("n_true", {"circles": [{"n": True, "r": 1.1}, two[1]], "b": 1.5, "eps": 0.0}),
        ("r_str", {"circles": [{"n": 6, "r": "1.1"}, two[1]], "b": 1.5, "eps": 0.0}),
        ("b_str", {"circles": two, "b": "1.5", "eps": 0.0}),
        ("eps_false", {"circles": two, "b": 1.5, "eps": False}),
        ("eps_str", {"circles": two, "b": 1.5, "eps": "0"}),
    ]:
        path = tmp_path / f"cfg_{name}.json"
        path.write_text(json.dumps(payload))
        flag = f"--config {path}: config lacks field '{name}'"
        if name not in ("r", "n", "b", "eps", "circles"):
            flag = "--config"
        malformed.append((("export", "--what", "dimacs", "--config", str(path)), flag))
    cases = malformed + [
        (("annulus-lower", "--case", "9", "--b", "1.3", "--k", "4"), None),
        (("no-such-command",), None),
        (("min-colors", "--b-lo", "1.2", "--b-hi", "1.1"), None),
        (("export", "--what", "dimacs", "--config", missing + ".json"), "--config"),
        # without --config the graph needs both --case and --b
        (("export", "--what", "dimacs"), "export needs either --config or --case with --b"),
        (("export", "--what", "dimacs", "--case", "1"), "export needs either --config"),
        (("export", "--what", "dimacs", "--b", "1.3"), "export needs either --config"),
        # --config gives the whole graph, so the flags that also give it are refused
        (("export", "--what", "dimacs", "--config", str(cfg), "--case", "1", "--b", "1.9",
          "--n", "50", "--eps", "0.01"), "--case, --b, --n, --eps"),
        (("annulus-upper", "--k", "3", "--out", missing + "/dir/x"), "--out"),
        # each flag parses only on the commands that read it
        (("hex-table", "--seed", "1"), "--seed"),
        (("min-colors", "--b-lo", "2", "--b-hi", "2", "--budget", "1"), "--budget"),
        (("eight-opt", "--seed", "0"), "--seed"),
        (("export", "--what", "dimacs", "--case", "1", "--b", "1.3", "--n", "4",
          "--format", "json"), "--format"),
        # --tol must lie in (0, b - 1), b - 1 being about 0.3754
        (("eight-opt", "--tol", "nan"), "--tol"),
        (("eight-opt", "--tol", "inf"), "--tol"),
        (("eight-opt", "--tol", "-1"), "--tol"),
        # --eps must lie below (--b - 1) / 2, the configuration's own rule
        (("annulus-lower", "--case", "1", "--b", "1.3", "--k", "4", "--eps", "0.5"),
         "--eps: need 0 < eps < (b-1)/2, got eps=0.5 for b=1.3"),
        (("export", "--what", "dimacs", "--case", "1", "--b", "1.3", "--eps", "0.2"),
         "--eps: need 0 < eps < (b-1)/2, got eps=0.2 for b=1.3"),
        # the radial scheme needs at least 2k sectors
        (("annulus-upper", "--k", "3", "--s-max", "4"), "--s-max"),
        # a grid of more points than an array can index
        (("min-colors", "--b-lo", "1.5", "--b-hi", "1e300", "--step", "1e-300"), "--step"),
        # radii near 1e300 square to inf, which would drop every edge: refused
        # before any point is made
        (("annulus-lower", "--case", "1", "--b", "1e300", "--k", "3", "--n", "5"),
         "--case, --b, --n, --eps: circle radius must be a number in (0, 2**500)"),
        (("export", "--what", "dimacs", "--case", "1", "--b", "1e300", "--n", "5"), "2**500"),
        (("threshold", "--case", "1", "--k", "4", "--n", "65", "--b-lo", "1.25",
          "--b-hi", "1e300", "--tol", "1e-3"), "--case, --n: circle radius"),
    ]
    # a --config graph needs a finite b > 1, eps in [0, (b - 1) / 2) and
    # radii in (0, 2**500) (json writes and reads NaN and Infinity literals)
    for name, b, eps, r in [("b_low", 0.9, 0.0001, 1.0001), ("b_inf", math.inf, 0.0001, 1.0001),
                            ("b_nan", math.nan, 0.0001, 1.0001), ("eps_neg", 1.25, -0.1, 1.0001),
                            ("eps_wide", 1.25, 0.125, 1.0001), ("eps_nan", 1.25, math.nan, 1.0001),
                            ("r_nan", 1.5, 0.0, math.nan), ("r_inf", 1.5, 0.0, math.inf),
                            ("r_huge", 1.5, 0.0, 1e300)]:
        path = tmp_path / f"cfg_{name}.json"
        circles = [{"n": 6, "r": r}, {"n": 6, "r": 1.2}]
        path.write_text(json.dumps({"circles": circles, "b": b, "eps": eps}))
        cases.append((("export", "--what", "dimacs", "--config", str(path)), "--config"))
    # --k is checked before the graph is built, so no chunk and no --out file appear
    out_file = ("--out", str(tmp_path / "k.txt"))
    cases += [(args + out_file, f"argument {flag}:") for args, flag in RANGE_ERRORS
              if args[0] == "export" and flag == "--k"]
    cases += PARSE_ERRORS
    for args, flag in cases:
        rc, out, err = run_main(capsys, *args)
        assert rc == 2, (args, err)
        assert out == "", args
        if flag is not None:
            assert flag in err, (args, err)
    # one case in a real process, so the exit status itself is checked
    proc = run_cli("eight-opt", "--tol", "0.4")
    assert proc.returncode == 2, proc.stderr
    assert "--tol" in proc.stderr
    assert not (tmp_path / "missing").exists()
    assert not [p.name for p in tmp_path.iterdir() if p.name.startswith("k.txt")]
    rc, _, err = run_main(capsys, "export", "--what", "dimacs", "--case", "1", "--b", "1.3",
                          "--n", "4", "--k", "3")
    assert rc == 0, err
    rc, _, err = run_main(capsys, "eight-opt", "--tol", "0.375")
    assert rc == 0, err
    # radii below 2**500 keep every edge (--b 1e300 is refused)
    rc, out, err = run_main(capsys, "export", "--what", "dimacs", "--case", "1", "--b", "1e150",
                            "--n", "5")
    assert (rc, out.splitlines()[0]) == (0, "p edge 10 35"), err
    # an integral float is still a point count
    path = tmp_path / "cfg_n_float.json"
    path.write_text(json.dumps({**good, "circles": [{"n": 4.0, "r": 1.0001}]}))
    rc, out, err = run_main(capsys, "export", "--what", "dimacs", "--config", str(path))
    assert (rc, out) == (0, "p edge 4 0\n"), err


CAPPED_MAIN = ("import resource, runpy, sys; cap = int(sys.argv.pop(1)) << 30; "
               "resource.setrlimit(resource.RLIMIT_AS, (cap, cap)); "
               "runpy.run_module('chromaplane', run_name='__main__')")


def run_capped(*args, cap_gb=3):
    # python -m chromaplane in a fresh process capped at cap_gb GB of address
    # space, where a build past what the host holds fails fast with a
    # MemoryError (exit 4)
    return subprocess.run(
        [sys.executable, "-c", CAPPED_MAIN, str(cap_gb), *args], capture_output=True, text=True,
        cwd=PKG_ROOT, timeout=60, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS caps a Linux process")
def test_export_refuses_a_config_of_more_points_than_edge_keys_hold(tmp_path, capsys):
    # 2**31 + 2 points, more than the edge keys hold and more than
    # MAX_GRAPH_ROWS, are refused as the file is read, before any point is
    # made. First in a process capped at 3 GB of address space, so a refusal
    # that came after the points would fail fast with a MemoryError (exit 4)
    # instead of taking the host's memory; then in-process, once that passed
    path = tmp_path / "big.json"
    circles = [{"n": 2**31 + 1, "r": 1.0001}, {"n": 1, "r": 1.2}]
    path.write_text(json.dumps({"circles": circles, "b": 1.25, "eps": 0.0001}))
    want = f"bad --config {path}: need at most {distgraph.MAX_GRAPH_ROWS} points, got 2147483650"
    args = ("export", "--what", "dimacs", "--config", str(path))
    proc = run_capped(*args)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert want in proc.stderr
    rc, out, err = run_main(capsys, *args)
    assert (rc, out) == (2, "") and want in err, err


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS caps a Linux process")
def test_a_huge_k_is_solved_within_a_small_cap():
    # the search holds state for min(k, n) colors, so k = 10**9 on 10 vertices
    # runs in a 1 GB address space; state for k colors would be a MemoryError
    proc = run_capped("annulus-lower", "--case", "1", "--b", "1.35", "--k", "1000000000",
                      "--n", "5", cap_gb=1)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "1,1.35,10,1000000000,3.5e-07,colorable,,"


# --n values whose configuration passes 2**31 points, and so MAX_GRAPH_ROWS:
# two circles of 2**31, and three of 715,827,883
OVERSIZED_N = [
    ("export", "--what", "dimacs", "--case", "1", "--b", "1.35", "--n", "2147483648"),
    ("annulus-lower", "--case", "1", "--b", "1.35", "--k", "4", "--n", "2147483648"),
    ("threshold", "--case", "1", "--k", "4", "--n", "2147483648", "--b-lo", "1.25",
     "--b-hi", "1.4"),
    ("annulus-lower", "--case", "3", "--b", "1.8", "--k", "4", "--n", "715827883"),
]


@pytest.mark.parametrize("args", OVERSIZED_N,
                         ids=["export", "annulus-lower", "threshold", "annulus-lower-case3"])
def test_oversized_n_is_a_usage_error(args, tmp_path, capsys, monkeypatch):
    # the configuration refuses the point count before any point is made, and
    # threshold asks it once before its first probe; a graph build here would
    # be the bug, so the spies record it and build nothing
    builds = []

    def no_build(*a, **kw):
        builds.append(a)
        raise AssertionError("graph built for a refused --n")

    monkeypatch.setattr(annulus, "case_graph", no_build)
    monkeypatch.setattr(distgraph, "build_graph", no_build)
    out_file = tmp_path / "out.txt"
    rc, out, err = run_main(capsys, *args, "--out", str(out_file))
    assert (rc, out) == (2, ""), err
    assert "chromaplane: error: usage: " in err and "--n" in err, err
    assert f"need at most {distgraph.MAX_GRAPH_ROWS} points" in err, err
    assert builds == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS caps a Linux process")
def test_oversized_n_exits_2_in_a_real_process():
    # capped at 3 GB of address space, so a refusal that came after the points
    # would fail fast with a MemoryError (exit 4) instead of taking the host's memory
    proc = run_capped(*OVERSIZED_N[2])
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert (f"usage: --case, --n: need at most {distgraph.MAX_GRAPH_ROWS} points, got 4294967296"
            in proc.stderr)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS caps a Linux process")
def test_n_past_the_row_cap_exits_2_in_a_real_process():
    # 2,147,483,646 points fit the edge keys but not memory; they are refused
    # before any point is made, within seconds
    start = time.perf_counter()
    proc = run_capped("annulus-lower", "--case", "3", "--b", "1.8", "--k", "4", "--n", "715827882")
    assert time.perf_counter() - start < 10.0
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    want = f"--n, --eps: need at most {distgraph.MAX_GRAPH_ROWS} points, got 2147483646"
    assert want in proc.stderr, proc.stderr


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS caps a Linux process")
@pytest.mark.parametrize("args", [
    ("annulus-lower", "--case", "1", "--b", "1.9", "--k", "4", "--n", "100000"),
    ("threshold", "--case", "1", "--k", "4", "--n", "100000", "--b-lo", "1.25", "--b-hi", "1.9"),
    ("export", "--what", "dimacs", "--case", "1", "--b", "1.9", "--n", "100000"),
], ids=["annulus-lower", "threshold", "export"])
def test_edges_past_the_row_cap_are_a_usage_error(args, tmp_path):
    # 200,000 points pass the cap, but their edges would not: the build counts
    # every block's pairs (slice hits x g) before it tiles one, and refuses
    proc = run_capped(*args, "--out", str(tmp_path / "out.txt"))
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    # threshold's first probe is b_lo; the commands that read --b and --eps name them too
    if args[0] == "threshold":
        b, flags = "1.25", "--case, --n"
    else:
        b, flags = "1.9", "--case, --b, --n, --eps"
    assert proc.stderr.startswith(f"chromaplane: error: usage: {flags}: need at most "
                                  f"{distgraph.MAX_GRAPH_ROWS} edge index pairs at b={b}, got "), proc.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS caps a Linux process")
def test_config_edges_past_the_row_cap_exit_2_in_a_real_process(tmp_path):
    # a --config is named instead of --n; two circles of 200,000 points at
    # b = 1.9 would tile about 7.5e10 index pairs
    path = tmp_path / "dense.json"
    path.write_text(json.dumps({"circles": [{"n": 200_000, "r": 1.0}, {"n": 200_000, "r": 1.1}],
                                "b": 1.9, "eps": 0.0}))
    proc = run_capped("export", "--what", "dimacs", "--config", str(path))
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    want = (f"usage: --config {path}: need at most {distgraph.MAX_GRAPH_ROWS} edge index pairs "
            "at b=1.9, got ")
    assert want in proc.stderr, proc.stderr


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS caps a Linux process")
def test_points_at_the_row_cap_are_built_within_1_gb():
    # 8,388,608 points, exactly the cap, are made as one 134 MB array before
    # the edge count refuses them; a tuple per point took 1.4 GB (exit 4 here)
    proc = run_capped("export", "--what", "dimacs", "--case", "1", "--b", "1.35",
                      "--n", "4194304", cap_gb=1)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    want = (f"usage: --case, --b, --n, --eps: need at most {distgraph.MAX_GRAPH_ROWS} "
            "edge index pairs at b=1.35")
    assert want in proc.stderr, proc.stderr


# sweeps past hexcolor.MAX_SWEEP_PAIRS and exports past solver.MAX_EXPORT_CELLS,
# refused before any pair or table is made: each was a MemoryError (exit 4) in
# a 1 GB address space, or, at p, q <= 3000, ran on past 20 s
SWEEP = "usage: --p-max, --q-max: need at most 1048576 (p, q) pairs, got "
CELLS = "usage: --k, --case, --b, --n, --eps: need at most 1048576 vertices x k"
OVERSIZED_TABLES = [
    (("hex-table", "--p-max", "100000", "--q-max", "100000"), SWEEP + "5000150000"),
    (("hex-table", "--p-max", "3000", "--q-max", "3000"), SWEEP + "4504500"),
    (("min-colors", "--b-lo", "1.3", "--b-hi", "1.4", "--search-max", "100000"),
     "usage: --search-max: need at most 1048576 (p, q) pairs, got 5000150000"),
    *((("export", "--what", what, "--case", "1", "--b", "1.35", "--n", "5", "--k", k),
       f"{CELLS}, got {10 * int(k)}")
      for what in ("cnf", "lp") for k in ("838860", "10000000")),
]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS caps a Linux process")
@pytest.mark.parametrize("args, want", OVERSIZED_TABLES,
                         ids=[" ".join(a[:3] + a[-1:]) for a, _ in OVERSIZED_TABLES])
def test_oversized_sweeps_and_exports_exit_2_within_1_gb(args, want):
    proc = run_capped(*args, cap_gb=1)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert f"chromaplane: error: {want}\n" in proc.stderr, proc.stderr


def test_annulus_upper_with_a_huge_s_max_ends():
    # radial_best stops once the gap cap cannot beat its best; k = 2 has no
    # valid b, and the walk over all 5e8 sector counts never ended
    proc = run_cli("annulus-upper", "--k", "2", "--s-max", "1000000000", timeout=10)
    assert (proc.returncode, proc.stdout) == (0, "k,s,b_max,binding\n2,,,no_valid_b\n"), proc.stderr


@pytest.mark.parametrize("case", [1, 2, 3, 4, 5])
def test_annulus_lower_points_is_the_graph_vertex_count(case, capsys, monkeypatch):
    # points is the vertex count of the one graph the command builds and solves,
    # two circles of --n for cases 1-2 and three for cases 3-5
    graphs = []
    build = distgraph.build_graph

    def spy(*args):
        graphs.append(build(*args))
        return graphs[-1]

    monkeypatch.setattr(distgraph, "build_graph", spy)
    b = annulus.CASE_THRESHOLDS[case] + 0.01
    rc, out, err = run_main(capsys, "annulus-lower", "--case", str(case), "--b", repr(b),
                            "--k", "4", "--n", "7", "--format", "json")
    assert rc == 0, err
    assert len(graphs) == 1
    assert json.loads(out)["points"] == graphs[0].n == 7 * annulus.CASE_CIRCLE_COUNTS[case][1]


def test_min_colors_grid_out_of_memory_is_usage(capsys, monkeypatch):
    # a grid too large to allocate is refused like one too large to index;
    # np.arange is faked, as a real request might be granted and then filled
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 924. TiB")

    monkeypatch.setattr(np, "arange", no_memory)
    rc, out, err = run_main(capsys, "min-colors", "--b-lo", "1.3", "--b-hi", "14",
                            "--step", "1e-13")
    assert (rc, out) == (2, "")
    assert "usage: --b-lo to --b-hi by --step: Unable to allocate" in err, err


def test_internal_value_error_exits_4(capsys, monkeypatch):
    # every out-of-range flag is refused at the CLI edge, so a ValueError
    # from the library is a bug, not a usage error
    def broken(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(hexcolor, "pareto_table", broken)
    rc, out, err = run_main(capsys, "hex-table")
    assert rc == 4
    assert out == ""
    assert "internal: ValueError: boom" in err


@pytest.mark.parametrize("label", ["eps_instability", "non_monotone"])
def test_threshold_instance_verdicts_exit_2(capsys, monkeypatch, label):
    # a threshold that moves with eps, or a verdict that is not monotone around
    # b*, is a statement about the instance, like a bracket that does not straddle
    # each probe's stub graph carries its verdict; its edge bytes are its (b, eps)
    def graph(case, b, eps=None, n_override=None):
        if label == "eps_instability":
            needs = b >= (1.4 if eps / (b - 1.0) < 1e-6 else 1.3)
        else:
            needs = b >= 1.4 and not 1.41 < b < 1.42
        return SimpleNamespace(edges=np.array([b, eps]), needs=needs)

    def solve(query, seed=0, progress=None):
        return SimpleNamespace(
            status=solver.NOT_COLORABLE if query.graph.needs else solver.COLORABLE)

    monkeypatch.setattr(annulus, "case_graph", graph)
    monkeypatch.setattr(annulus, "k_colorable", solve)
    rc, out, err = run_main(capsys, "threshold", "--case", "1", "--k", "4", "--n", "65",
                            "--b-lo", "1.25", "--b-hi", "1.5", "--tol", "0.015625")
    assert (rc, out) == (2, "")
    assert f"chromaplane: error: {label}: " in err, err
    assert "internal" not in err


def test_heartbeat_writes_to_stderr_only(capsys, monkeypatch):
    # the refute instance: 7,706 search nodes, a budget tick every 2,048
    args = ("annulus-lower", "--case", "1", "--b", "1.35", "--k", "4", "--n", "130")
    rc, quiet, err = run_main(capsys, *args)
    assert rc == 0 and "progress:" not in err, err
    monkeypatch.setattr(solver, "_PROGRESS_INTERVAL", 0.0)
    rc, out, err = run_main(capsys, *args)
    assert rc == 0, err
    beats = [line for line in err.splitlines() if line.startswith("progress:")]
    assert [line.split()[1] for line in beats] == ["nodes=2048", "nodes=4096", "nodes=6144"]
    assert all(re.fullmatch(r"progress: nodes=\d+ elapsed=\d+s", line) for line in beats), beats
    assert out == quiet


def test_main_callable_in_process(capsys):
    rc = main(["annulus-upper", "--k", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1].startswith("4,12,1.41421356")


DETERMINISM_CASES = [
    ("annulus-upper", "--k", "5"),
    ("annulus-lower", "--case", "1", "--b", "1.35", "--k", "4", "--n", "65"),
    ("threshold", "--case", "1", "--k", "4", "--n", "65",
     "--b-lo", "1.25", "--b-hi", "1.4", "--tol", "1e-3"),
    ("hex-table", "--p-max", "4", "--q-max", "4"),
    ("min-colors", "--b-lo", "1.3", "--b-hi", "2.5", "--step", "0.25"),
    ("eight-opt", "--tol", "1e-6"),
    ("export", "--what", "lp", "--case", "1", "--b", "1.3", "--n", "6", "--k", "3"),
    ("export", "--what", "cnf", "--case", "2", "--b", "1.48", "--n", "10", "--k", "4"),
    ("export", "--what", "dimacs", "--case", "1", "--b", "1.3", "--n", "8"),
]


@pytest.mark.parametrize("args", DETERMINISM_CASES, ids=lambda a: a[0] + "-" + a[-1])
def test_cli_byte_identical_across_runs(args):
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert second.returncode == 0
    assert first.stdout.encode() == second.stdout.encode()


def test_shared_parser_gives_what_a_fresh_parser_gives(capsys):
    # main builds its parser once per process; no call may leave anything in
    # it for the next, so an --eps given once is not the next call's eps
    lower = ("annulus-lower", "--case", "1", "--b", "1.35", "--k", "4", "--n", "13")
    calls = [("annulus-lower", "--case", "1", "--b", "1.35"), lower + ("--eps", "1e-4"), lower,
             ("--help",)]

    def run(argv):
        rc, out, _ = run_main(capsys, *argv)
        return rc, out.encode()

    build_parser.cache_clear()
    shared = [run(argv) for argv in calls]
    assert build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(argv))
    assert shared == fresh
    assert [rc for rc, _ in shared] == [2, 0, 0, 0]
    assert b"0.0001" in shared[1][1] and b"0.0001" not in shared[2][1]
    assert shared[3][1].startswith(b"usage: chromaplane ")
