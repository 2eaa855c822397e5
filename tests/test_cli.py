import json
import subprocess
import sys

import pytest

from packedlcs.cli import main


def run_cli(args, capsys):
    rc = main(args)
    out = capsys.readouterr()
    return rc, out.out, out.err


def write(tmp_path, name, data):
    p = tmp_path / name
    p.write_bytes(data)
    return str(p)


def test_cmd_lcs_banana(tmp_path, capsys):
    a = write(tmp_path, "a.txt", b"banana")
    b = write(tmp_path, "b.txt", b"ananas")
    rc, out, _ = run_cli(["lcs", a, b, "--no-timing"], capsys)
    assert rc == 0
    rep = json.loads(out)
    assert rep["length"] == 5
    assert rep["n_s"] == 6 and rep["sigma"] == 4


def test_cmd_lcs_identical_files(tmp_path, capsys):
    a = write(tmp_path, "a.txt", b"abcabcabc")
    rc, out, _ = run_cli(["lcs", a, a], capsys)
    rep = json.loads(out)
    assert rep["length"] == 9


def test_cmd_lcs_fasta(tmp_path, capsys):
    a = write(tmp_path, "a.fa", b">hdr\nban\nana\n")
    b = write(tmp_path, "b.txt", b"ananas")
    rc, out, _ = run_cli(["lcs", a, b], capsys)
    assert json.loads(out)["length"] == 5


def test_cmd_lcs_force_regime(tmp_path, capsys):
    a = write(tmp_path, "a.txt", b"banana")
    b = write(tmp_path, "b.txt", b"ananas")
    rc, out, _ = run_cli(["lcs", a, b, "--force-regime", "medium"], capsys)
    assert rc == 0
    assert json.loads(out)["regime"] == "medium"


@pytest.mark.parametrize(
    "args",
    [["lcs"], *(["lcs", "--force-regime", r] for r in ("short", "medium", "long")), ["klcs", "-k", "1"]],
)
def test_cli_encodes_each_input_once(tmp_path, capsys, monkeypatch, args):
    from packedlcs.lcs_engine import _Ctx

    builds = []
    init = _Ctx.__init__

    def spy(self, *a, **kw):
        builds.append(1)
        init(self, *a, **kw)

    monkeypatch.setattr(_Ctx, "__init__", spy)
    a = write(tmp_path, "a.txt", b"abaabbabaabaab" * 30)
    b = write(tmp_path, "b.txt", b"babaababbaabab" * 30)
    rc, out, _ = run_cli([args[0], a, b, *args[1:], "--no-timing"], capsys)
    assert rc == 0 and json.loads(out)["length"] > 0
    assert len(builds) == 1


def test_cmd_lcs_missing_file(tmp_path, capsys):
    rc, _, err = run_cli(["lcs", str(tmp_path / "nope"), str(tmp_path / "nope2")], capsys)
    assert rc == 2
    assert "error" in err


def test_cmd_lcs_deterministic_output(tmp_path, capsys):
    a = write(tmp_path, "a.txt", b"banana")
    b = write(tmp_path, "b.txt", b"ananas")
    _, out1, _ = run_cli(["lcs", a, b, "--no-timing"], capsys)
    _, out2, _ = run_cli(["lcs", a, b, "--no-timing"], capsys)
    assert out1 == out2


def test_cmd_klcs(tmp_path, capsys):
    a = write(tmp_path, "a.txt", b"abcde")
    b = write(tmp_path, "b.txt", b"abxde")
    rc, out, _ = run_cli(["klcs", a, b, "-k", "1", "--no-timing"], capsys)
    rep = json.loads(out)
    assert rep["length"] == 5
    assert rep["mismatch_offsets"] == [3]


def test_cmd_klcs_k0_matches_lcs(tmp_path, capsys):
    a = write(tmp_path, "a.txt", b"xxbananaxx")
    b = write(tmp_path, "b.txt", b"qbananaq")
    _, out1, _ = run_cli(["klcs", a, b, "-k", "0", "--no-timing"], capsys)
    _, out2, _ = run_cli(["lcs", a, b, "--no-timing"], capsys)
    assert json.loads(out1)["length"] == json.loads(out2)["length"]


def test_cmd_klcs_over_cap(tmp_path, capsys):
    a = write(tmp_path, "a.txt", b"abc")
    rc, _, err = run_cli(["klcs", a, a, "-k", "9"], capsys)
    assert rc == 2
    assert "cap" in err


def test_verify_suites_pass(capsys):
    for suite in ("sync", "families", "wavelet"):
        rc, out, _ = run_cli(["verify", suite, "--seed", "7", "--max-n", "200"], capsys)
        assert rc == 0, (suite, out)
        assert json.loads(out.strip().splitlines()[-1])["status"] == "ok"


def test_verify_all_small(capsys):
    rc, out, _ = run_cli(["verify", "all", "--seed", "3", "--max-n", "80"], capsys)
    assert rc == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert len(lines) == 5 and all(l["status"] == "ok" for l in lines)


def test_verify_failure_injection(capsys):
    rc, out, _ = run_cli(["verify", "sync", "--inject"], capsys)
    assert rc == 1
    rep = json.loads(out.strip().splitlines()[-1])
    assert rep["status"] == "fail"
    assert "counterexample" in rep


def test_verify_unknown_suite(capsys):
    rc = main(["verify", "nonsense"])
    capsys.readouterr()
    assert rc == 2


def test_bench_csv_schema(capsys):
    rc, out, _ = run_cli(
        ["bench", "planted-lcs", "256", "4", "2", "--no-timing"], capsys
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "generator,n,sigma,rep,algorithm,regime,length,time_ns,anchors,speedup"
    assert len(lines) == 1 + 2 * 2
    # planted length is reported by the packed row
    for ln in lines[1:]:
        fields = ln.split(",")
        assert len(fields) == 10


def test_bench_planted_matches_plant(capsys):
    rc, out, _ = run_cli(["bench", "planted-lcs", "200", "3", "1", "--no-timing"], capsys)
    lines = out.strip().splitlines()
    packed = [l for l in lines[1:] if l.split(",")[4] == "packed"][0]
    assert int(packed.split(",")[6]) >= 200 // 4


def test_bench_deterministic_with_no_timing(capsys):
    rc, out1, _ = run_cli(["bench", "random", "128", "2", "2", "--no-timing"], capsys)
    rc, out2, _ = run_cli(["bench", "random", "128", "2", "2", "--no-timing"], capsys)
    assert out1 == out2


def test_console_entry_point():
    rc = subprocess.run(
        [sys.executable, "-m", "packedlcs.cli", "verify", "sync", "--max-n", "60"],
        capture_output=True,
    )
    assert rc.returncode == 0
