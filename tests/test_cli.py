"""Command-line interface contract: exit codes, CSV and JSON shapes,
determinism, and config-file handling.  Everything runs through a real
subprocess so argument parsing and stream behavior are exercised as a
user would hit them.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import steklov_ball
from steklov_ball.cli import _CHUNK_CELLS, _table_text

SCHEMAS = json.loads(
    (Path(steklov_ball.__file__).parent / "schemas" / "output_schemas.json").read_text()
)


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "steklov_ball.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def table_text(*grid) -> str:
    return "".join(_table_text(*grid))


def validate(payload: dict, name: str) -> None:
    schema = dict(SCHEMAS["definitions"][name])
    schema["definitions"] = SCHEMAS["definitions"]
    jsonschema.validate(payload, schema)


def test_eigs_csv_values():
    r = run_cli("eigs", "--family", "2", "--l-max", "3", "--k2", "1")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "family,l,theta,k2,lambda,status"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "2" and first[1] == "1" and first[5] == "OK"
    assert float(first[4]) == pytest.approx(steklov_ball.lambda2(1, 1.0), rel=1e-15)


def test_eigs_json_schema():
    r = run_cli("eigs", "--family", "1", "--l-max", "4", "--k2", "-7.5",
                "--theta", "0.5", "--format", "json")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    validate(payload, "table")
    assert len(payload["rows"]) == 4
    for row in payload["rows"]:
        assert row["lambda"] == pytest.approx(
            steklov_ball.lambda1(row["l"], -7.5, 0.5), rel=1e-15
        )


def test_eigs_zero_k2_exits_3():
    r = run_cli("eigs", "--family", "1", "--l-max", "2", "--k2", "0")
    assert r.returncode == 3
    assert "k2 = 0" in r.stderr


def test_eigs_resonant_row_is_res():
    z = steklov_ball.bessel_zeros(1, 1).roots[0]
    r = run_cli("eigs", "--family", "2", "--l-max", "2", "--k2", repr(z * z))
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    row1 = lines[1].split(",")
    assert row1[5] == "RES" and row1[4] == ""
    assert lines[2].split(",")[5] == "OK"


def test_invalid_flags_exit_2():
    for args in (
        ["eigs", "--family", "3", "--l-max", "2", "--k2", "1"],
        ["eigs", "--l-max", "2"],  # --k2 required
        ["eigs", "--family", "1", "--l-max", "0", "--k2", "1"],
        ["zeros", "--kind", "unknown", "--l", "1"],
        ["verify", "--suite", "not-a-suite"],
        ["verify", "--tol", "-1"],
        ["verify", "--tol", "0"],
        ["verify", "--l-max", "0"],
        ["verify", "--l-max", "-5"],
        ["verify", "--l-max", "201"],
        ["eigs", "--l-max", "201", "--k2", "1"],
        ["eigs", "--l-max", "1", "--k2", "1e11"],
        ["sweep", "--l", "1:2", "--k2", "1:2", "--samples", "0"],
        ["sweep", "--l", "1:2", "--k2", "1:2", "--samples", "100001"],
        ["sweep", "--l", "1:2", "--k2", "1:2", "--samples", "5", "--threads", "0"],
        ["sweep", "--l", "1:2", "--k2", "1:2", "--samples", "5", "--threads", "65"],
        ["eigs", "--k2", "1", "--config", "/nonexistent.cfg"],
        ["eigs", "--k2", "1", "--out", "/nonexistent-dir/x.csv"],
        ["classical", "--dim", "10001", "--count", "5"],
    ):
        r = run_cli(*args)
        assert r.returncode == 2, args
        assert r.stderr.strip() != ""
        assert "Traceback" not in r.stderr


def test_eigen_grid_faults_have_their_own_message():
    for args, message in (
        (["eigs", "--k2", "1", "--l-max", "0"], "error: degree range 1..0 is empty\n"),
        (["eigs", "--family", "3", "--k2", "1"], "error: family must be 1 or 2, got 3\n"),
        (["sweep", "--family", "0", "--l", "1:2", "--k2", "1:2"], "error: family must be 1 or 2, got 0\n"),
    ):
        r = run_cli(*args)
        assert (r.returncode, r.stdout, r.stderr) == (2, "", message), args


def test_negative_values_accepted_after_flag():
    # "--k2 -5" and "--k2 -100:100" must parse even though the token
    # starts with a dash
    r = run_cli("eigs", "--family", "1", "--l-max", "1", "--k2", "-5")
    assert r.returncode == 0
    r = run_cli("sweep", "--family", "1", "--l", "1:2", "--k2", "-10:10",
                "--samples", "5")
    assert r.returncode == 0
    ks = [line.split(",")[3] for line in r.stdout.strip().splitlines()[1:]]
    assert ks[:5] == ["-10", "-5", "0", "5", "10"]


def test_sweep_single_sample_matches_eigs():
    r1 = run_cli("sweep", "--family", "1", "--l", "2:2", "--k2", "3.5:3.5",
                 "--samples", "1", "--theta", "2")
    r2 = run_cli("eigs", "--family", "1", "--l-max", "2", "--k2", "3.5",
                 "--theta", "2")
    row_sweep = r1.stdout.strip().splitlines()[1]
    row_eigs = r2.stdout.strip().splitlines()[2]  # l = 2 row
    assert row_sweep == row_eigs


def test_eigs_tiny_k2_prints_no_nan():
    r = run_cli("eigs", "--k2", "1e-300", "--l-max", "2")
    assert r.returncode == 0
    assert "nan" not in r.stdout.lower()
    values = [float(line.split(",")[4]) for line in r.stdout.strip().splitlines()[1:]]
    assert values == pytest.approx([-5.0 / 3.0, -2.8], rel=1e-15)
    r = run_cli("eigs", "--k2", "1e-300", "--l-max", "2", "--format", "json")
    assert r.returncode == 0
    validate(json.loads(r.stdout), "table")


def test_eigs_large_negative_k2_and_high_degree():
    r = run_cli("eigs", "--family", "2", "--k2=-1e6", "--l-max", "2")
    assert r.returncode == 0, r.stderr
    row = r.stdout.strip().splitlines()[2].split(",")
    assert row[5] == "OK"
    assert float(row[4]) == pytest.approx(-1000.0030029999909729, rel=1e-14)
    r = run_cli("eigs", "--family", "2", "--k2", "1", "--l-max", "200")
    assert r.returncode == 0, r.stderr
    rows = [line.split(",") for line in r.stdout.strip().splitlines()[1:]]
    assert len(rows) == 200 and all(row[5] == "OK" for row in rows)
    assert float(rows[198][4]) == pytest.approx(-199.99750621898234379, rel=1e-14)


def test_cell_bytes_do_not_depend_on_the_table():
    # A cell evaluated alone by eigs prints the same bytes as inside a
    # wider sweep window and degree block.
    r = run_cli("sweep", "--family", "1", "--l", "2:9", "--k2", "-3000:7000",
                "--samples", "41", "--theta", "0.5")
    assert r.returncode == 0
    rows = r.stdout.strip().splitlines()[1:]
    for index in (41 * 2 + 3, 41 * 2 + 13, 41 * 2 + 40):  # l = 4 at three k2
        row = rows[index]
        k2 = row.split(",")[3]
        alone = run_cli("eigs", "--family", "1", "--l-max", "4", "--k2", k2, "--theta", "0.5")
        assert alone.returncode == 0
        assert alone.stdout.strip().splitlines()[4] == row


def test_table_text_golden_bytes():
    # CSV uses .17g; JSON keeps json.dumps(indent=2) with repr floats.
    # The rows mix families, so each is rendered as its own one-cell grid.
    rows = [
        (1, 1, 1.0, -100.0, -1.3796666252553651, "OK"),
        (1, 2, 0.5, 0.1, None, "RES"),
        (2, 10, 2.0, 1e-300, 12345678.901234567, "OK"),
    ]
    csv_lines = [
        "1,1,1,-100,-1.3796666252553651,OK",
        "1,2,0.5,0.10000000000000001,,RES",
        "2,10,2,1e-300,12345678.901234567,OK",
    ]
    json_rows = [
        """    {
      "family": 1,
      "l": 1,
      "theta": 1.0,
      "k2": -100.0,
      "lambda": -1.379666625255365,
      "status": "OK"
    }""",
        """    {
      "family": 1,
      "l": 2,
      "theta": 0.5,
      "k2": 0.1,
      "lambda": null,
      "status": "RES"
    }""",
        """    {
      "family": 2,
      "l": 10,
      "theta": 2.0,
      "k2": 1e-300,
      "lambda": 12345678.901234567,
      "status": "OK"
    }""",
    ]
    for (family, l, theta, k2, value, status), csv_line, json_row in zip(rows, csv_lines, json_rows):
        grid = (
            family, theta, range(l, l + 1), [k2],
            np.array([[math.nan if value is None else value]]), np.array([[status == "OK"]]),
        )
        assert table_text("csv", *grid) == f"family,l,theta,k2,lambda,status\n{csv_line}\n"
        assert table_text("json", *grid) == f'{{\n  "rows": [\n{json_row}\n  ]\n}}\n'
    empty = (1, 1.0, range(1, 1), [], np.empty((0, 0)), np.empty((0, 0), dtype=bool))
    assert table_text("csv", *empty) == "family,l,theta,k2,lambda,status\n"
    assert table_text("json", *empty) == '{\n  "rows": []\n}\n'


def _table_oracle(fmt, family, theta, degrees, k2s, values, ok) -> str:
    rows = [
        (family, l, theta, k2, value if good else None, "OK" if good else "RES")
        for l, row_values, row_ok in zip(degrees, values.tolist(), ok.tolist())
        for k2, value, good in zip(k2s, row_values, row_ok)
    ]
    if fmt == "csv":
        return "family,l,theta,k2,lambda,status\n" + "".join(
            f"{f},{l},{format(t, '.17g')},{format(k2, '.17g')},"
            f"{'' if value is None else format(value, '.17g')},{status}\n"
            for f, l, t, k2, value, status in rows
        )
    keys = ("family", "l", "theta", "k2", "lambda", "status")
    return json.dumps({"rows": [dict(zip(keys, row)) for row in rows]}, indent=2) + "\n"


def test_table_text_matches_per_cell_formatting():
    c11 = np.linspace(-100.0, 100.0, 2001).tolist()
    edge_k2s = [-1e6, -2.5, -0.0, 0.0, 1e-300, 0.1, 3.75, 1e4]
    edge_values, edge_ok = steklov_ball.kernel.eigen_grid(1, 190, 200, edge_k2s, 0.7)
    edge_values[:, ::2] *= -1.0  # mixed signs
    edge_values[0, :3] = [5e-324, -1.7976931348623157e308, 1e16]
    edge_ok[4, 5:7] = False  # RES cells inside the grid as well as at k2 = 0
    grids = [
        (1, 0.5, range(1, 11), c11, *steklov_ball.kernel.eigen_grid(1, 1, 10, c11, 0.5)),
        (2, 1.0, range(1, 11), c11, *steklov_ball.kernel.eigen_grid(2, 1, 10, c11)),
        (1, 0.7, range(190, 201), edge_k2s, edge_values, edge_ok),
    ]
    assert edge_ok.any() and not edge_ok[:, 3].any() and not edge_ok[4, 5]
    for grid in grids:
        for fmt in ("csv", "json"):
            assert table_text(fmt, *grid) == _table_oracle(fmt, *grid), (fmt, grid[:2])


def test_table_text_chunks_are_blocks_of_one_degree():
    k2s = np.linspace(-30.0, 30.0, 2 * _CHUNK_CELLS + 1).tolist()
    grid = (2, 1.0, range(1, 4), k2s, *steklov_ball.kernel.eigen_grid(2, 1, 3, k2s))
    for fmt in ("csv", "json"):
        chunks = list(_table_text(fmt, *grid))
        assert len(chunks) == 2 + 3 * 3  # header, three blocks per degree, trailer
        assert "".join(chunks) == _table_oracle(fmt, *grid)


def test_sweep_thread_count_invariance():
    args = ["sweep", "--family", "2", "--l", "1:4", "--k2", "-30:30", "--samples", "101"]
    outs = []
    for threads in ("1", "3", "8"):
        r = run_cli(*args, "--threads", threads)
        assert r.returncode == 0
        outs.append(r.stdout)
    assert outs[0] == outs[1] == outs[2]


def test_sweep_env_thread_default():
    args = ["sweep", "--family", "1", "--l", "1:2", "--k2", "0:4", "--samples", "5"]
    a = run_cli(*args, env_extra={"STEKLOV_BALL_THREADS": "2"})
    b = run_cli(*args, "--threads", "7")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_sweep_interior_zero_is_res_but_all_zero_range_fails():
    r = run_cli("sweep", "--family", "1", "--l", "1:1", "--k2", "-1:1",
                "--samples", "3")
    assert r.returncode == 0
    rows = [line.split(",") for line in r.stdout.strip().splitlines()[1:]]
    assert rows[1][3] == "0" and rows[1][5] == "RES"
    r = run_cli("sweep", "--family", "1", "--l", "1:1", "--k2", "0:0",
                "--samples", "1")
    assert r.returncode == 3


def test_sweep_json_has_no_nan(tmp_path):
    # spanning several poles: every lambda is finite or the row is RES
    r = run_cli("sweep", "--family", "1", "--l", "1:3", "--k2", "-50:50",
                "--samples", "201", "--format", "json")
    assert r.returncode == 0
    payload = json.loads(r.stdout)  # json.loads rejects bare NaN/Infinity
    validate(payload, "table")
    for row in payload["rows"]:
        if row["status"] == "OK":
            assert math.isfinite(row["lambda"])
        else:
            assert row["lambda"] is None


def test_zeros_csv_and_json():
    r = run_cli("zeros", "--kind", "bessel", "--l", "0", "--count", "2")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "kind,l,theta,index,root,residual"
    roots = [float(line.split(",")[4]) for line in lines[1:]]
    assert roots[0] == pytest.approx(math.pi, rel=1e-14)
    assert roots[1] == pytest.approx(2 * math.pi, rel=1e-14)

    r = run_cli("zeros", "--kind", "family1", "--l", "2", "--count", "3",
                "--theta", "0.5", "--format", "json")
    payload = json.loads(r.stdout)
    validate(payload, "zeros")
    assert payload["kind"] == "family1" and payload["theta"] == 0.5
    got = payload["roots"]
    want = steklov_ball.family1_resonances(2, 0.5, 3).roots
    for a, b in zip(got, want):
        assert a == pytest.approx(b, rel=1e-15)


@pytest.mark.parametrize("kind", ["bessel", "neumann", "magnetic", "family1"])
def test_zeros_degree_bound(kind):
    r = run_cli("zeros", "--kind", kind, "--l", "200", "--count", "2")
    assert r.returncode == 0, r.stderr
    assert len(r.stdout.strip().splitlines()) == 3
    r = run_cli("zeros", "--kind", kind, "--l", "201")
    assert r.returncode == 2
    assert "201" in r.stderr and "Traceback" not in r.stderr


def test_classical_output():
    r = run_cli("classical", "--dim", "3", "--count", "9")
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "dim,radius,rank,degree,eigenvalue,multiplicity"
    eigs = [float(line.split(",")[4]) for line in lines[1:]]
    assert eigs == [0.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0]

    r = run_cli("classical", "--dim", "4", "--radius", "2", "--count", "6",
                "--format", "json")
    payload = json.loads(r.stdout)
    validate(payload, "classical")
    assert payload["rows"][1]["eigenvalue"] == pytest.approx(0.5)
    assert payload["rows"][0]["rank"] == 1


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_classical_radius_whose_spectrum_overflows_exits_2(fmt):
    r = run_cli("classical", "--dim", "2", "--count", "3", "--radius", "1e-320", "--format", fmt)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1 and "1e-320" in r.stderr


def test_verify_default_passes_and_validates():
    r = run_cli("verify", "--l-max", "4")
    assert r.returncode == 0, r.stdout + r.stderr
    payload = json.loads(r.stdout)
    validate(payload, "verify")
    assert payload["passed"] is True
    assert payload["counts"]["failed"] == 0


def test_verify_single_suite_csv():
    r = run_cli("verify", "--suite", "spot-values", "--format", "csv")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0].startswith("suite,")


def test_verify_csv_quotes_the_names_that_hold_commas():
    # Every row parses into the five header fields, and the names are the
    # JSON report's, commas and all.
    flags = ("verify", "--l-max", "3", "--tol", "0.5")
    rows = list(csv.reader(io.StringIO(run_cli(*flags, "--format", "csv").stdout)))
    names = [c["name"] for c in json.loads(run_cli(*flags).stdout)["checks"]]
    assert rows[0] == ["suite", "name", "passed", "residual", "tolerance"]
    assert all(len(row) == 5 for row in rows)
    assert [row[1] for row in rows[1:]] == names
    assert sum("," in name for name in names) >= 10


def test_verify_argument_errors_are_typed():
    # Refused before any suite runs, with the message as written.
    r = run_cli("verify", "--suite", "not-a-suite")
    assert r.stderr.startswith("error: unknown suites: ['not-a-suite']")
    for kwargs in ({"suites": ["not-a-suite"]}, {"l_max": 0}, {"l_max": 201}, {"l_max": 2.0}):
        with pytest.raises(steklov_ball.InvalidMode):
            steklov_ball.run_suites(**kwargs)
    for tol in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(steklov_ball.DomainError):
            steklov_ball.run_suites(tol_scale=tol)


def test_verify_tight_tolerance_fails():
    # Residuals near 1e-14 cannot meet tolerances scaled down to 1e-15.
    r = run_cli("verify", "--suite", "eigen-residuals", "--tol", "1e-6")
    assert r.returncode == 1
    payload = json.loads(r.stdout)
    assert payload["passed"] is False


def test_out_flag_writes_file(tmp_path):
    out = tmp_path / "table.csv"
    r = run_cli("eigs", "--family", "2", "--l-max", "2", "--k2", "4",
                "--out", str(out))
    assert r.returncode == 0
    assert r.stdout == ""
    text = out.read_text()
    assert text.startswith("family,l,theta,k2,lambda,status")


@pytest.mark.parametrize("args", [
    ("eigs", "--family", "1", "--l-max", "5", "--k2", "-7.5", "--theta", "0.5"),
    ("sweep", "--l", "1:3", "--k2", "-30:30", "--samples", str(_CHUNK_CELLS + 7)),
    ("sweep", "--l", "1:3", "--k2", "-30:30", "--samples", str(_CHUNK_CELLS + 7), "--format", "json"),
    ("zeros", "--kind", "family1", "--l", "3", "--count", "4", "--format", "json"),
    ("classical", "--dim", "4", "--count", "9"),
])
def test_out_file_holds_the_stdout_bytes(tmp_path, args):
    out = tmp_path / "table.txt"
    to_stdout = subprocess.run([sys.executable, "-m", "steklov_ball.cli", *args], capture_output=True)
    to_file = run_cli(*args, "--out", str(out))
    assert to_stdout.returncode == to_file.returncode == 0
    assert to_file.stdout == to_file.stderr == ""
    assert out.read_bytes() == to_stdout.stdout


def test_out_file_is_not_made_when_the_command_fails_first(tmp_path):
    out = tmp_path / "table.txt"
    for args, code in (
        (["sweep", "--k2", "0:0"], 3),
        (["eigs", "--k2", "0"], 3),
        (["eigs", "--k2", "1", "--l-max", "0"], 2),
        (["sweep", "--l", "1:2", "--k2", "1:2", "--samples", "0"], 2),
        (["zeros", "--kind", "bessel", "--l", "201"], 2),
    ):
        r = run_cli(*args, "--out", str(out))
        assert r.returncode == code, args
        assert not out.exists(), args


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_out_file_write_error_exits_2():
    # /dev/full opens, and every write to it fails with ENOSPC
    r = run_cli("sweep", "--l", "1:3", "--k2", "-30:30", "--samples", "501", "--out", "/dev/full")
    assert r.returncode == 2
    assert r.stderr.startswith("error: cannot write --out file: ") and "Traceback" not in r.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_stdout_write_error_exits_2():
    with open("/dev/full", "w") as full:
        r = subprocess.run([sys.executable, "-m", "steklov_ball.cli", "eigs", "--k2", "1"],
                           stdout=full, stderr=subprocess.PIPE, text=True)
    assert r.returncode == 2
    assert r.stderr.startswith("error: cannot write output: ") and r.stderr.count("\n") == 1
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_reader_that_closes_stdout_early_ends_the_output_quietly(fmt):
    proc = subprocess.Popen(
        [sys.executable, "-m", "steklov_ball.cli", "sweep", "--l", "1:10", "--k2", "-100:100",
         "--samples", "20000", "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    head = proc.stdout.read(100)
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0 and stderr == b""
    assert head.startswith(b"family,l,theta" if fmt == "csv" else b'{\n  "rows": [')


# A child's ru_maxrss starts from the high-water mark of the memory it was
# started in: a fork or posix_spawn of this pytest process would report
# pytest's size.  So a small interpreter spawns the command and reports it.
_SPAWN = """
import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "steklov_ball.cli", *sys.argv[1:]],
                     os.environ, file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(usage.ru_maxrss, os.waitstatus_to_exitcode(status))
"""


def _peak_rss_mb(*args) -> tuple[float, int]:
    r = subprocess.run([sys.executable, "-c", _SPAWN, *args], capture_output=True, text=True, check=True)
    maxrss_kb, code = r.stdout.split()
    return int(maxrss_kb) / 1024.0, int(code)


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in KiB, as Linux reports it")
def test_sweep_memory_does_not_grow_with_its_output():
    args = ("sweep", "--l", "1:10", "--k2", "-100:100", "--format", "json", "--samples")
    output_mb = len(run_cli(*args, "20000").stdout) / 2**20  # about 30 MB
    big, big_code = _peak_rss_mb(*args, "20000")
    small, small_code = _peak_rss_mb(*args, "1")
    assert big_code == small_code == 0
    assert big - small < output_mb / 2, (big, small, output_mb)
    # Degree-heavy: the grid's results (9 bytes a cell), not the text, set
    # the peak; the kernel holds no more than a few rows beside them.
    args = ("sweep", "--l", "1:200", "--k2=-100:100", "--theta", "0.5", "--samples")
    results_mb = 200 * 5000 * 9 / 2**20
    big, big_code = _peak_rss_mb(*args, "5000")
    small, small_code = _peak_rss_mb(*args, "1")
    assert big_code == small_code == 0
    assert big - small < 2 * results_mb, (big, small, results_mb)


def test_config_file_merge(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\nfamily=2\nl-max=2\nk2=1\n")
    r = run_cli("eigs", "--config", str(cfg), "--l-max", "3")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert len(lines) == 4  # flag --l-max 3 beat the config's 2
    assert lines[1].split(",")[0] == "2"  # family came from the config

    # config alone can satisfy a required flag; a bad key cannot
    r = run_cli("eigs", "--config", str(cfg))
    assert r.returncode == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text("no-such-key=1\n")
    r = run_cli("eigs", "--config", str(bad), "--family", "1", "--l-max", "1",
                "--k2", "1")
    assert r.returncode == 2

    # a config value is cast and checked like the flag; keys are spelled out
    for text in ("family=x\n", "format=xml\n", "fam=2\n", "this line has no equals sign\n"):
        bad.write_text(text)
        r = run_cli("eigs", "--config", str(bad), "--k2", "1")
        assert r.returncode == 2, text
        assert r.stdout == "" and "Traceback" not in r.stderr
    bad.write_bytes(b"\xff\xfe=1\n")
    r = run_cli("eigs", "--config", str(bad), "--k2", "1")
    assert r.returncode == 2 and "Traceback" not in r.stderr

    # suite=a,b runs both suites; a --suite flag replaces the config's list
    suites = tmp_path / "suites.cfg"
    suites.write_text("suite=spot-values,classical\nformat=csv\n")
    r = run_cli("verify", "--config", str(suites))
    assert r.returncode == 0
    ran = {line.split(",")[0] for line in r.stdout.strip().splitlines()[1:]}
    assert ran == {"spot-values", "classical"}
    r = run_cli("verify", "--config", str(suites), "--suite", "harmonics")
    assert r.returncode == 0
    ran = {line.split(",")[0] for line in r.stdout.strip().splitlines()[1:]}
    assert ran == {"harmonics"}
