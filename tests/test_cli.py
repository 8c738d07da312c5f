import hashlib
import json
import sys
from collections import Counter

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


def test_verify_csplit_corrupt_names_a_witness_for_every_check_on_the_table(capsys):
    code, out = run(["--format", "json", "verify", "csplit", "--corrupt"], capsys)
    assert code == 1
    results = {r["check"]: r for r in json.loads(out)["results"]}
    failed = [name for name, r in results.items() if not r["ok"]]
    assert failed == ["table: 64 products match",
                      "norm multiplicativity on all 4096 basis quadruples",
                      "degree-2 identity on all 64 basis pairs",
                      "D skew in its arguments",
                      "cyclic derivation identity on all triples"]
    assert results[failed[0]]["witness"] == [
        {"pair": ["u0", "u1"], "expected": {"7": "1"}, "got": {"5": "1"}}]
    assert results[failed[2]]["witness"] == [["u0", "u1"], ["u1", "u0"]]
    labels = {"e1", "e2", "u0", "u1", "u2", "v0", "v1", "v2"}
    for name, width in zip(failed[1:], (4, 2, 2, 3)):
        witness = results[name]["witness"]
        assert 1 <= len(witness) <= 3
        assert all(len(t) == width and set(t) <= labels for t in witness)


def test_seed_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--seed", "0", "verify", "csplit"])
    assert exc.value.code == 2


def test_verify_json_reports_path(capsys):
    code, out = run(["--format", "json", "verify", "super"], capsys)
    assert code == 0
    paths = {r["check"]: r.get("path") for r in json.loads(out)["results"]}
    for check in ("super-Jacobi G(3) case", "super-Jacobi F(4) case",
                  "structurable identity on aj:jvtheta", "structurable identity on aj:d2"):
        assert paths[check] == "int64"
    code, out = run(["--format", "json", "verify", "tits"], capsys)
    assert code == 0
    paths = {r["check"]: r.get("path") for r in json.loads(out)["results"]}
    for jname in ("h3:ground", "h3:binarion", "h3:quaternion", "h3:cayley", "jvtheta", "d2"):
        assert paths["Lie conditions for %s" % jname] == "int64"


def test_verify_all_builds_each_derivation_space_once(monkeypatch, capsys):
    # der C once per C and d_{J,J} once per J, shared by every T(C, J):
    # 5 composition algebras (csplit's own split Cayley algebra among them)
    # and 6 Jordan algebras
    from magma_tits import algebra, registry
    from magma_tits.tits import TitsAlgebra
    spaces = []
    init = algebra.DerivationSpace.__init__

    def counting(self, *args):
        spaces.append(self)
        init(self, *args)
    monkeypatch.setattr(registry, "_CACHE", {})
    monkeypatch.setattr(algebra.DerivationSpace, "__init__", counting)
    code, _out = run(["--format", "json", "verify", "all"], capsys)
    assert code == 0
    assert len(spaces) == 11
    Ts = [T for T in registry._CACHE.values() if isinstance(T, TitsAlgebra)]
    assert len(Ts) == 18
    assert all(T.djj is T.J.djj() and T.derC in spaces for T in Ts)


# md5 of the output of `magma-tits --format json verify <suite>` for each
# suite: every check name, verdict, path and count, byte for byte.  When a
# check name or a report field changes on purpose, regenerate each pin with
#     magma-tits --format json verify <suite> | md5sum
VERIFY_JSON_MD5 = {
    "csplit": "d62b933e5c927cea6fdfe8557f639447",
    "tits": "dd270790933b1703fbe0aa3ae40b5a2a",
    "thm41": "fc4748bfd810410312de6f31542e11e9",
    "thm61": "95ca67863cc1dba83db6e7e8c1998474",
    "super": "be1962d6e1c3d3ecbc54a98a10b9e26e",
    "thm71": "e9801fd87a459396b13949e4bc22128e",
}


@pytest.mark.parametrize("suite", sorted(VERIFY_JSON_MD5))
def test_suite_json_is_pinned(suite, capsys):
    code, out = run(["--format", "json", "verify", suite], capsys)
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == VERIFY_JSON_MD5[suite]


def test_verify_thm41_single(capsys):
    code, out = run(["verify", "thm41", "--jordan", "h3:ground"], capsys)
    assert code == 0


def test_verify_thm61_single(capsys):
    code, out = run(["verify", "thm61", "--left", "binarion", "--right", "ground"], capsys)
    assert code == 0


def test_verify_builds_each_tits_algebra_once(monkeypatch, capsys):
    # thm41 and thm61 share T(cayley, h3:*): one process builds each (C, J)
    # once, and every structure-constant table is lowered at most once
    from magma_tits import int_fast, registry
    counts = Counter()
    lowered, tables = Counter(), []
    table_coo = int_fast.table_coo

    def counting(build):
        def wrapper(C, J, *args, **kwargs):
            counts[(C.name, J.name)] += 1
            return build(C, J, *args, **kwargs)
        return wrapper

    def lowering(sc, field):
        lowered[id(sc)] += 1
        tables.append(sc)          # keeps each id unique while counting
        return table_coo(sc, field)

    monkeypatch.setattr(registry, "_CACHE", {})
    monkeypatch.setattr(registry, "build_tits", counting(registry.build_tits))
    for name, module in list(sys.modules.items()):
        if name.startswith("magma_tits.") and hasattr(module, "table_coo"):
            monkeypatch.setattr(module, "table_coo", lowering)
    for suite in ("thm41", "thm61"):
        code, _out = run(["verify", suite], capsys)
        assert code == 0
    assert len(counts) == 16
    assert set(counts.values()) == {1}
    assert lowered and max(lowered.values()) == 1


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


@pytest.mark.parametrize("entry", [[0, 0, 5, "1"], [0, -1, 0, "1"]])
def test_decompose_rejects_bad_json_index(tmp_path, entry):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"basis": ["a", "b", "c"], "sc": [entry]}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["decompose", "--lie", str(path), "--triple", "0,1,2"])
    assert "(%d,%d,%d)" % tuple(entry[:3]) in str(exc.value)
    assert "range(3)" in str(exc.value) and str(path) in str(exc.value)
