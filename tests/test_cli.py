import json

import pytest

from magma_tits import cli
from magma_tits.algebra import SuperAlgebra


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_magic_square_dims(capsys):
    code, out = run(["magic-square", "--no-jacobi"], capsys)
    assert code == 0
    assert "248" in out and "133" in out and "78" in out and "52" in out


def test_magic_square_json(capsys):
    code, out = run(["--format", "json", "magic-square", "--no-jacobi"], capsys)
    data = json.loads(out)
    cayley_row = [r for r in data["rows"] if r["left"] == "cayley"][0]
    assert [e["dim"] for e in cayley_row["entries"]] == [52, 78, 133, 248]
    ground_row = [r for r in data["rows"] if r["left"] == "ground"][0]
    assert [e["dim"] for e in ground_row["entries"]] == [3, 8, 21, 52]


def test_verify_csplit(capsys):
    code, out = run(["verify", "csplit"], capsys)
    assert code == 0
    assert "OK" in out


def test_verify_csplit_corrupt_exits_nonzero(capsys):
    code, out = run(["verify", "csplit", "--corrupt"], capsys)
    assert code == 1
    assert "witness" in out


def test_verify_json_reports_path(capsys):
    code, out = run(["--format", "json", "verify", "super"], capsys)
    assert code == 0
    paths = {r["check"]: r.get("path") for r in json.loads(out)["results"]}
    for check in ("super-Jacobi G(3) case", "super-Jacobi F(4) case",
                  "structurable identity on aj:jvtheta", "structurable identity on aj:d2"):
        assert paths[check] == "int64"


def test_verify_thm41_single(capsys):
    code, out = run(["verify", "thm41", "--jordan", "h3:ground"], capsys)
    assert code == 0


def test_verify_thm61_single(capsys):
    code, out = run(["verify", "thm61", "--left", "binarion", "--right", "ground"], capsys)
    assert code == 0


def test_export_round_trip(tmp_path, capsys):
    path = tmp_path / "cayley.json"
    code, _ = run(["export", "cayley", str(path)], capsys)
    assert code == 0
    data = json.loads(path.read_text())
    assert len(data["basis"]) == 8
    assert len(data["sc"]) <= 64
    back = SuperAlgebra.from_json_dict(data)
    from magma_tits.registry import composition_by_name
    assert back.sc == composition_by_name("cayley").algebra.sc
    # canonical ordering
    assert data["sc"] == sorted(data["sc"], key=lambda e: (e[0], e[1], e[2]))


def test_export_tits_name(tmp_path, capsys):
    path = tmp_path / "f4.json"
    code, _ = run(["export", "tits:cayley:h3:ground", str(path)], capsys)
    assert code == 0
    data = json.loads(path.read_text())
    assert len(data["basis"]) == 52


def test_export_unknown_name(capsys):
    with pytest.raises(KeyError):
        cli.main(["export", "nonsense"])


def test_decompose_cli(capsys):
    code, out = run(["--format", "json", "decompose", "--lie", "glw",
                     "--triple", "6,7,8"], capsys)
    assert code == 0
    data = json.loads(out)
    assert (data["m_adjoint"], data["m_h"], data["m_trivial"]) == (1, 1, 1)


def test_decompose_json_input(tmp_path, capsys):
    path = tmp_path / "glw.json"
    run(["export", "glw", str(path)], capsys)
    code, out = run(["--format", "json", "decompose", "--lie", str(path),
                     "--triple", "6,7,8"], capsys)
    assert code == 0
    assert json.loads(out)["ok"]


def test_coordinate_algebra_cli(capsys):
    code, out = run(["--format", "json", "coordinate-algebra",
                     "--lie", "tits:cayley:h3:ground", "--action", "left"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 14 and data["unital"]


def test_tits_cli(tmp_path, capsys):
    path = tmp_path / "g3.json"
    code, out = run(["tits", "--left", "cayley", "--jordan", "jvtheta",
                     "--out", str(path)], capsys)
    assert code == 0
    data = json.loads(path.read_text())
    assert len(data["basis"]) == 31
    assert sum(data["parity"]) == 14


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit):
        cli.main(["magic-square", "--bogus"])
