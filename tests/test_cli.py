"""End-to-end command-line tests; all but one run in a subprocess."""

import json
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

from rectcover import bench, cli

CHAIN_FILE = "n 3\n0.0 0.0 3.0 1.0\n2.0 0.0 5.0 1.0\n4.0 0.0 7.0 1.0\n"


def run_cli(*args, **kwargs):
    # -W error, as pytest's filterwarnings is for the in-process tests
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "rectcover", *map(str, args)],
        capture_output=True,
        text=True,
        **kwargs,
    )


def test_help():
    proc = run_cli("--help")
    assert proc.returncode == 0
    for cmd in ("gen", "solve", "bench", "verify"):
        assert cmd in proc.stdout


def test_console_script_installed():
    exe = shutil.which("rectcover")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0


def test_gen_stdout_and_file(tmp_path):
    out = tmp_path / "a.txt"
    proc = run_cli("gen", "--n", 4, "--seed", 11, "--out", out)
    assert proc.returncode == 0
    text = out.read_text()
    assert text.startswith("n 4\n")
    assert len(text.strip().split("\n")) == 5
    # stdout emission is byte-identical to the file
    proc2 = run_cli("gen", "--n", 4, "--seed", 11)
    assert proc2.stdout == text


def test_gen_empty():
    proc = run_cli("gen", "--n", 0)
    assert proc.returncode == 0
    assert proc.stdout == "n 0\n"


def test_gen_region():
    proc = run_cli("gen", "--n", 30, "--seed", 3, "--region", "10,20,-5,0")
    assert proc.returncode == 0
    for line in proc.stdout.strip().split("\n")[1:]:
        xlo, ylo, xhi, yhi = map(float, line.split())
        assert 10 <= xlo < xhi <= 20
        assert -5 <= ylo < yhi <= 0


@pytest.mark.parametrize(
    "command",
    [("gen", "--n", 6, "--seed", 4), ("solve", "--algo", "gcc", "--n", 6, "--seed", 4)],
    ids=["gen", "solve"],
)
def test_region_with_negative_first_bound_as_separate_word(command):
    spaced = run_cli(*command, "--region", "-2,3,0,1")
    joined = run_cli(*command, "--region=-2,3,0,1")
    assert spaced.returncode == 0, spaced.stderr
    assert joined.returncode == 0, joined.stderr
    if command[0] == "gen":
        assert spaced.stdout == joined.stdout
        assert any(float(line.split()[0]) < 0 for line in spaced.stdout.splitlines()[1:])
    else:
        a, b = json.loads(spaced.stdout), json.loads(joined.stdout)
        a.pop("elapsed_ms"), b.pop("elapsed_ms")
        assert a == b and a["verified"] is True


def test_gen_bad_region():
    proc = run_cli("gen", "--n", 5, "--region", "3,2,0,1")
    assert proc.returncode == 2


def test_solve_file_json(tmp_path):
    path = tmp_path / "chain.txt"
    path.write_text(CHAIN_FILE)
    proc = run_cli("solve", "--algo", "gcc", "--file", path)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["algo"] == "gcc"
    assert payload["n"] == 3
    assert payload["seed"] is None
    assert payload["size"] == 2
    assert payload["verified"] is True
    assert len(payload["points"]) == 2
    assert len(payload["assignment"]) == 3


def test_solve_saved_instance_as_generated(tmp_path):
    # an instance written by gen and read back solves as the one generated
    # in memory does
    path = tmp_path / "n20000-seed3.txt"
    assert run_cli("gen", "--n", 20000, "--seed", 3, "--out", path).returncode == 0
    from_file = run_cli("solve", "--algo", "gcc-i", "--file", path)
    generated = run_cli("solve", "--algo", "gcc-i", "--n", 20000, "--seed", 3)
    assert from_file.returncode == generated.returncode == 0
    got, want = json.loads(from_file.stdout), json.loads(generated.stdout)
    keys = ("size", "theta", "phi", "verified")
    assert {k: got[k] for k in keys} == {k: want[k] for k in keys}
    assert want["verified"] is True


def test_solve_file_mis(tmp_path):
    path = tmp_path / "chain.txt"
    path.write_text(CHAIN_FILE)
    proc = run_cli("solve", "--algo", "mis", "--file", path)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["size"] == 2
    assert payload["members"] == [0, 2]
    assert payload["verified"] is True


def test_solve_empty_instance(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("n 0\n")
    for algo in ("gcc", "gcc-i", "mis", "mis-i"):
        proc = run_cli("solve", "--algo", algo, "--file", path)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["size"] == 0


def test_solve_generated_json():
    proc = run_cli("solve", "--algo", "mis", "--n", 25, "--seed", 6)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["seed"] == 6
    assert payload["size"] == len(payload["members"])
    assert payload["theta"] == 0 and payload["phi"] == 0


def test_solve_csv(tmp_path):
    path = tmp_path / "chain.txt"
    path.write_text(CHAIN_FILE)
    proc = run_cli("solve", "--algo", "gcc-i", "--file", path, "--format", "csv")
    assert proc.returncode == 0
    header, row = proc.stdout.strip().split("\n")
    assert header == "algo,n,seed,size,theta,phi,verified"
    assert row == "gcc-i,3,,2,2,0,true"


def test_solve_deterministic():
    a = run_cli("solve", "--algo", "gcc-i", "--n", 40, "--seed", 2)
    b = run_cli("solve", "--algo", "gcc-i", "--n", 40, "--seed", 2)
    pa, pb = json.loads(a.stdout), json.loads(b.stdout)
    pa.pop("elapsed_ms"), pb.pop("elapsed_ms")
    assert pa == pb


def test_solve_needs_source():
    proc = run_cli("solve", "--algo", "gcc")
    assert proc.returncode == 2


def test_solve_unknown_algo():
    proc = run_cli("solve", "--algo", "nope", "--n", 5)
    assert proc.returncode == 2


def test_solve_missing_file():
    proc = run_cli("solve", "--algo", "gcc", "--file", "/no/such/file")
    assert proc.returncode == 2
    assert "error" in proc.stderr


def test_solve_unstabbable_overlap_is_an_input_error(tmp_path):
    # 0.5000000000000001 is the double right after 0.5: the overlap of the
    # two boxes holds no double, so no stab point exists
    path = tmp_path / "ulp.txt"
    path.write_text("n 2\n0.0 0.0 0.5000000000000001 1.0\n0.5 0.0 1.0 1.0\n")
    for algo in ("gcc", "gcc-i", "mis", "mis-i"):
        proc = run_cli("solve", "--algo", algo, "--file", path)
        assert proc.returncode == 2, algo
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_solve_boxes_near_the_top_of_the_float_range(tmp_path):
    # lo + hi overflows to inf for both boxes, so a midpoint taken as
    # (lo + hi) / 2 is no stab point
    path = tmp_path / "huge.txt"
    path.write_text("n 2\n1e308 0 1.6e308 1\n1.2e308 0 1.7e308 1\n")
    for algo in ("gcc", "gcc-i", "mis", "mis-i"):
        proc = run_cli("solve", "--algo", algo, "--file", path)
        assert proc.returncode == 0, (algo, proc.stderr)
        payload = json.loads(proc.stdout)
        assert payload["size"] == 1, algo
        assert payload["verified"] is True, algo


def test_bench_csv_deterministic(tmp_path):
    args = ("bench", "--n-list", "30,60", "--trials", 3, "--seed", 4)
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    lines = a.stdout.strip().split("\n")
    assert len(lines) == 3
    assert lines[0].startswith("n,trials,gcc,")
    assert lines[0].endswith(",three_sqrt_n")
    # rerunning one size alone reproduces that row
    c = run_cli("bench", "--n-list", "60", "--trials", 3, "--seed", 4)
    assert c.stdout.strip().split("\n")[1] == lines[2]


def test_bench_records_sidecar(tmp_path):
    out = tmp_path / "agg.csv"
    rec = tmp_path / "runs.csv"
    proc = run_cli(
        "bench", "--n-list", "20", "--trials", 2, "--seed", 1,
        "--out", out, "--records", rec,
    )
    assert proc.returncode == 0
    lines = rec.read_text().strip().split("\n")
    assert lines[0] == "seed,n,algorithm,size,theta,phi"
    assert len(lines) == 1 + 2 * 4


def test_bench_timings_flag():
    base = run_cli("bench", "--n-list", "20", "--trials", 2)
    timed = run_cli("bench", "--n-list", "20", "--trials", 2, "--timings")
    assert "t_gcc_ms" not in base.stdout
    assert "t_gcc_ms" in timed.stdout


def test_bench_large_needs_flag():
    proc = run_cli("bench", "--n-list", "6000", "--trials", 1)
    assert proc.returncode == 2
    assert "allow-large" in proc.stderr


def test_bench_gnuplot(tmp_path):
    out = tmp_path / "agg.csv"
    script = tmp_path / "plot.gp"
    proc = run_cli(
        "bench", "--n-list", "20", "--trials", 1,
        "--out", out, "--gnuplot", script,
    )
    assert proc.returncode == 0
    assert str(out) in script.read_text()
    # the script needs a CSV on disk to point at
    proc2 = run_cli("bench", "--n-list", "20", "--trials", 1, "--gnuplot", script)
    assert proc2.returncode == 2


def test_verify_ok():
    proc = run_cli("verify", "--count", 2, "--n", 10, "--seed", 3)
    assert proc.returncode == 0
    assert "all checks passed" in proc.stdout


def test_verify_zero_count_vacuous():
    proc = run_cli("verify", "--count", 0, "--n", 10)
    assert proc.returncode == 0


def test_verify_inject_fault(monkeypatch, capsys):
    # in process, so the oracle can be made to disagree with the sweep
    monkeypatch.setattr(bench, "max_clique_candidates", lambda rects: SimpleNamespace(size=0))
    assert cli.main(["verify", "--count", "1", "--n", "10"]) == 1
    assert "FAIL" in capsys.readouterr().err


def test_verify_size_capped():
    proc = run_cli("verify", "--count", 1, "--n", 19)
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "args",
    [
        ("gen", "--n", -3),
        ("solve", "--algo", "gcc", "--n", -3),
        ("verify", "--n", -3),
        ("verify", "--count", -1),
        ("bench", "--trials", 0),
        ("verify", "--mis-cap", -1),
        ("verify", "--mcc-cap", -1),
        ("gen", "--n", 3, "--region", "0,inf,0,1"),
        ("gen", "--n", 3, "--region=-1e308,1e308,0,1"),
        ("gen", "--n", 3, "--region", "-1e308,1e308,0,1"),
        ("solve", "--algo", "gcc", "--n", 3, "--region", "-3,-4,0,1"),
        ("gen", "--n", 3, "--region"),
        ("solve", "--algo", "gcc", "--file", "chain.txt", "--n", 3),
        ("solve", "--algo", "gcc"),
    ],
    ids=[
        "gen-n",
        "solve-n",
        "verify-n",
        "verify-count",
        "bench-trials",
        "verify-mis-cap",
        "verify-mcc-cap",
        "gen-region-inf",
        "gen-region-overflow",
        "gen-region-overflow-separate-word",
        "solve-region-empty-separate-word",
        "gen-region-no-value",
        "solve-file-and-n",
        "solve-no-source",
    ],
)
def test_bad_counts_are_usage_errors(args):
    # a generator drawing from an unbounded region never returns
    proc = run_cli(*args, timeout=30)
    assert proc.returncode == 2
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1, proc.stderr
    assert "Traceback" not in proc.stderr
