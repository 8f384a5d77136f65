import json
import subprocess
import sys

import pytest

from zappatic import constructions, serialize
from zappatic.arrangement import compute_incidence, zappatic_report
from zappatic.cli import JSON_BEGIN, JSON_END, main
from zappatic.constructions import build_X, chain_planes
from zappatic.errors import RangeError


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def json_block(stdout: str) -> dict:
    body = stdout.split(JSON_BEGIN)[1].split(JSON_END)[0].strip()
    return json.loads(body)


class TestSerialize:
    def test_roundtrip_preserves_report(self, tmp_path):
        res = build_X(8, 2, seed=3)
        path = tmp_path / "x.json"
        serialize.write_arrangement(path, res.arrangement, {"family": "X"})
        arr, meta = serialize.read_arrangement(path)
        assert meta == {"family": "X"}
        assert arr == res.arrangement
        rep = zappatic_report(arr, compute_incidence(arr))
        assert rep.r_counts == res.report.r_counts
        assert rep.s_counts == res.report.s_counts

    def test_fraction_entries_accepted(self, tmp_path):
        data = {
            "ambient_dim": 3,
            "planes": [
                [
                    [[1, 2], [0, 1], [0, 1], [0, 1]],
                    [[0, 1], [1, 3], [0, 1], [0, 1]],
                    [[0, 1], [0, 1], [1, 1], [0, 1]],
                ],
                [
                    [[0, 1], [1, 1], [0, 1], [0, 1]],
                    [[0, 1], [0, 1], [1, 1], [0, 1]],
                    [[0, 1], [0, 1], [0, 1], [1, 1]],
                ],
            ],
        }
        path = tmp_path / "f.json"
        path.write_text(json.dumps(data))
        arr, _ = serialize.read_arrangement(path)
        assert len(arr) == 2
        # row scaling is projectively irrelevant: same canonical planes
        assert arr.subspace(0).basis[0][0] == 1

    def test_big_integers_as_strings(self, tmp_path):
        from zappatic.arrangement import Arrangement
        from zappatic.projective import Subspace

        big = 2**80
        arr = Arrangement(
            3, [Subspace(3, [[big, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]])]
        )
        path = tmp_path / "big.json"
        serialize.write_arrangement(path, arr)
        raw = json.loads(path.read_text())
        flat = json.dumps(raw)
        assert str(big) in flat
        back, _ = serialize.read_arrangement(path)
        assert back == arr

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(RangeError):
            serialize.read_arrangement(path)


class TestConstructCommand:
    def test_x82_summary_tokens(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["construct", "--family", "X", "--d", "8", "--g", "2", "--seed", "7",
             "--out", str(tmp_path / "x.json")],
            capsys,
        )
        assert code == 0
        assert "R3=6 S4=2 g=2 chi=-1" in out
        payload = json_block(out)
        assert payload["edges"] == 9
        assert (tmp_path / "x.json").exists()

    def test_y_13_3_edges(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["construct", "--family", "Y", "--d", "13", "--g", "3", "--seed", "1",
             "--out", str(tmp_path / "y.json")],
            capsys,
        )
        assert code == 0
        assert "edges=15" in out

    def test_cycle_range_error_exit_2(self, tmp_path, capsys):
        code, _out, err = run_cli(
            ["construct", "--family", "cycle", "--d", "4", "--out", str(tmp_path / "c.json")],
            capsys,
        )
        assert code == 2
        assert "d >= 5" in err

    def test_x_range_error_names_bound(self, tmp_path, capsys):
        code, _out, err = run_cli(
            ["construct", "--family", "X", "--d", "9", "--g", "3", "--out",
             str(tmp_path / "x.json")],
            capsys,
        )
        assert code == 2
        assert "2g+4" in err

    def test_genericity_exhaustion_exit_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(constructions, "RETRY_CAP", 0)
        code, _out, err = run_cli(
            ["construct", "--family", "Z", "--d", "9", "--g", "2", "--out",
             str(tmp_path / "z.json")],
            capsys,
        )
        assert code == 3
        assert err.startswith("error: no generic") and "planes" in err
        assert "Traceback" not in err


class TestClassifyCommand:
    def test_counts_for_x82(self, tmp_path, capsys):
        run_cli(
            ["construct", "--family", "X", "--d", "8", "--g", "2", "--seed", "7",
             "--out", str(tmp_path / "x.json")],
            capsys,
        )
        code, out, _ = run_cli(["classify", str(tmp_path / "x.json")], capsys)
        assert code == 0
        rows = [l for l in out.splitlines() if l.startswith("point ")]
        assert len(rows) == 8
        assert sum("-> R3" in r for r in rows) == 6
        assert sum("-> S4" in r for r in rows) == 2
        assert "Zappatic: yes" in out

    def test_disjoint_planes_file(self, tmp_path, capsys):
        from zappatic.arrangement import Arrangement
        from zappatic.projective import Subspace

        a = Subspace(5, [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]])
        b = Subspace(5, [[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]])
        path = tmp_path / "disj.json"
        serialize.write_arrangement(path, Arrangement(5, [a, b]))
        code, out, _ = run_cli(["classify", str(path)], capsys)
        assert code == 0
        assert "no singular points; Zappatic: yes" in out

    def test_point_meet_file_reports_reason(self, tmp_path, capsys):
        from zappatic.arrangement import Arrangement
        from zappatic.projective import Subspace

        a = Subspace(4, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]])
        b = Subspace(4, [[0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])
        path = tmp_path / "pm.json"
        serialize.write_arrangement(path, Arrangement(4, [a, b]))
        code, out, _ = run_cli(["classify", str(path)], capsys)
        assert code == 0
        assert "NonZappatic(isolated plane-pair contact)" in out
        assert "Zappatic: no" in out

    def test_malformed_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("[1,2,3]")
        code, _out, _err = run_cli(["classify", str(path)], capsys)
        assert code == 2


def _rows(entry=None):
    """Rows of a plane of P^3, with the entry at (1, 2) replaced when given."""
    rows = [[[int(i == j), 1] for j in range(4)] for i in range(3)]
    if entry is not None:
        rows[1][2] = entry
    return rows


def _plane_file(tmp_path, plane, metadata=None):
    data = {"ambient_dim": 3, "planes": [plane]}
    if metadata is not None:
        data["metadata"] = metadata
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    return path


class TestMalformedArrangementFiles:
    """Every reading command exits 2 with a message, never a traceback."""

    def _check_exit_2(self, path, capsys):
        dot = str(path.parent / "g.dot")
        for cmd in (["classify"], ["invariants", "--smooth"], ["graph", "--dot", dot]):
            code, _out, err = run_cli([cmd[0], str(path), *cmd[1:]], capsys)
            assert code == 2, cmd
            assert err.startswith("error:"), cmd

    def test_non_numeric_entry(self, tmp_path, capsys):
        self._check_exit_2(_plane_file(tmp_path, _rows(["abc", 1])), capsys)

    def test_digit_string_over_int_limit(self, tmp_path, capsys):
        huge = "1" + "0" * 4400
        self._check_exit_2(_plane_file(tmp_path, _rows([huge, 1])), capsys)

    def test_plane_not_a_list_of_rows(self, tmp_path, capsys):
        self._check_exit_2(_plane_file(tmp_path, 5), capsys)

    def test_metadata_not_an_object(self, tmp_path, capsys):
        self._check_exit_2(_plane_file(tmp_path, _rows(), metadata=5), capsys)

    def test_family_not_a_string(self, tmp_path, capsys):
        self._check_exit_2(_plane_file(tmp_path, _rows(), metadata={"family": ["X"]}), capsys)

    def test_valid_one_plane_file_still_reads(self, tmp_path):
        arr, meta = serialize.read_arrangement(_plane_file(tmp_path, _rows()))
        assert len(arr) == 1 and meta == {}


class TestInvariantsCommand:
    def test_x_10_3(self, tmp_path, capsys):
        run_cli(
            ["construct", "--family", "X", "--d", "10", "--g", "3", "--seed", "2",
             "--out", str(tmp_path / "x.json")],
            capsys,
        )
        code, out, _ = run_cli(
            ["invariants", str(tmp_path / "x.json"), "--smooth"], capsys
        )
        assert code == 0
        assert "g=3 chi=-2 p_omega=0 K2=[-16,-12]" in out
        assert "smooth: g=3 p_g=0 chi=-2 K2=[-16,-12]" in out

    def test_chain5(self, tmp_path, capsys):
        run_cli(
            ["construct", "--family", "chain", "--d", "5",
             "--out", str(tmp_path / "c.json")],
            capsys,
        )
        code, out, _ = run_cli(["invariants", str(tmp_path / "c.json")], capsys)
        assert code == 0
        assert "g=0 chi=1" in out and "K2=[8,8]" in out

    def test_abstract_torus(self, capsys):
        code, out, _ = run_cli(["invariants", "--abstract", "torus", "2", "2"], capsys)
        assert code == 0
        assert "chi=0" in out and "h2=1" in out
        assert "homology=(1,2,1)" in out

    def test_abstract_torus_non_integer_size_exit_2(self, capsys):
        code, _out, err = run_cli(["invariants", "--abstract", "torus", "x", "3"], capsys)
        assert code == 2
        assert err.startswith("error:")


class TestGraphCommand:
    def test_dot_export(self, tmp_path, capsys):
        run_cli(
            ["construct", "--family", "cycle", "--d", "5",
             "--out", str(tmp_path / "c.json")],
            capsys,
        )
        code, _out, _ = run_cli(
            ["graph", str(tmp_path / "c.json"), "--dot", str(tmp_path / "c.dot")],
            capsys,
        )
        assert code == 0
        dot = (tmp_path / "c.dot").read_text()
        assert dot.startswith("graph zappatic {")
        assert 'v0 -- v1 [label="C_{0,1}"];' in dot
        assert "style=dashed" in dot  # open faces of the R_3 points


class TestSmallCommands:
    def test_hilbert(self, capsys):
        code, out, _ = run_cli(["hilbert", "--d", "5", "--g", "0"], capsys)
        assert code == 0 and out.strip() == "42"

    def test_hilbert_range_exit2(self, capsys):
        code, _, err = run_cli(["hilbert", "--d", "7", "--g", "2"], capsys)
        assert code == 2 and "2g+4" in err

    def test_feasible_messages(self, capsys):
        code, out, _ = run_cli(["feasible", "--a", "2", "--b", "6"], capsys)
        assert code == 0
        assert out.strip() == "infeasible: j_a range empty (a+b-2 > 2a+1)"
        code, out, _ = run_cli(["feasible", "--a", "2", "--b", "5"], capsys)
        assert code == 0 and out.startswith("feasible: j = (")

    def test_degenerate_ledger(self, capsys):
        code, out, _ = run_cli(["degenerate", "--d", "5"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "# total degree: 5"
        assert lines[-1] == "P(1) P(1) P(1) P(1) P(1)"

    def test_quadrics_negative_genus_exit_2(self, capsys):
        code, out, err = run_cli(["quadrics", "--d", "3", "--g", "-1"], capsys)
        assert code == 2
        assert out == "" and "g >= 0" in err

    def test_quadrics_oracle(self, capsys):
        code, out, _ = run_cli(["quadrics", "--d", "3", "--g", "0", "--oracle"], capsys)
        assert code == 0
        assert "formula 3 = oracle 3" in out
        assert "formula 2 = oracle 2" in out


class TestDeterminismAndSeeds:
    def test_env_seed_used_and_flag_wins(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ZAPPATIC_SEED", "5")
        _, out, _ = run_cli(
            ["construct", "--family", "X", "--d", "8", "--g", "2",
             "--out", str(tmp_path / "a.json")],
            capsys,
        )
        assert json_block(out)["seed"] == 5
        _, out, _ = run_cli(
            ["construct", "--family", "X", "--d", "8", "--g", "2", "--seed", "9",
             "--out", str(tmp_path / "b.json")],
            capsys,
        )
        assert json_block(out)["seed"] == 9

    def test_byte_identical_across_processes(self, tmp_path, cli_env):
        cmd = [
            sys.executable, "-m", "zappatic.cli", "construct", "--family", "X",
            "--d", "10", "--g", "3", "--seed", "42",
        ]
        r1 = subprocess.run(
            cmd + ["--out", str(tmp_path / "r1.json")], capture_output=True, env=cli_env
        )
        r2 = subprocess.run(
            cmd + ["--out", str(tmp_path / "r2.json")], capture_output=True, env=cli_env
        )
        assert r1.returncode == r2.returncode == 0
        out1 = r1.stdout.replace(b"r1.json", b"out.json")
        out2 = r2.stdout.replace(b"r2.json", b"out.json")
        assert out1 == out2
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
