import io
import json

from quiverhh import cli


def run_cli(argv):
    stream = io.StringIO()
    code = cli.main(argv, stream=stream)
    return code, stream.getvalue()


def test_report_torus_json():
    code, out = run_cli(["report", "--family", "torus-s", "--q", "1", "--field", "rational"])
    assert code == 0
    doc = json.loads(out)
    assert doc["hh"][:3] == [1, 2, 1]
    assert doc["cup"] == {"rank": 1, "nonzero": True}
    assert doc["bracket"] == {"hh1_bracket_rank": 0}
    assert doc["small_complex_dims"] == [42, 84, 42]
    assert doc["checks"]["d_squared_zero"] is True
    assert doc["checks"]["small_bar_agree"] is True


def test_report_p1p1_psi():
    code, out = run_cli(["report", "--family", "p1p1", "--psi", "ee:1", "--field", "rational"])
    assert code == 0
    doc = json.loads(out)
    assert doc["hh"][:3] == [1, 3, 6]
    assert doc["params"] == {"psi": "ee:1"}


def test_report_negative_q():
    code, out = run_cli(["report", "--family", "torus-c", "--q", "-1", "--field", "rational"])
    assert code == 0
    assert json.loads(out)["hh"][:3] == [1, 2, 1]


def test_report_deterministic_bytes():
    argv = ["report", "--family", "p1p1", "--psi", "ee:2,ff:2,hh:1"]
    _, out1 = run_cli(argv)
    _, out2 = run_cli(argv)
    assert out1 == out2


def test_report_from_file(tmp_path):
    text = """
    field fp:7
    quiver { vertices: v1 v2 v3 ; arrows: a: v1 -> v2 ; b: v1 -> v2 ; c: v2 -> v3 }
    relations { c*a - 2*c*b ; }
    """
    path = tmp_path / "pres.dsl"
    path.write_text(text, encoding="utf-8")
    code, out = run_cli(["report", "--file", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["field"] == "fp:7"


def test_exit_code_parse_error(tmp_path):
    path = tmp_path / "bad.dsl"
    path.write_text("field rational\nquiver { vertices: v ; arrows: a v -> v }", encoding="utf-8")
    code, _ = run_cli(["report", "--file", str(path)])
    assert code == cli.EXIT_PARSE
    code, _ = run_cli(["report", "--file", str(tmp_path / "missing.dsl")])
    assert code == cli.EXIT_PARSE


def test_exit_code_nonconfluent(tmp_path):
    path = tmp_path / "loop.dsl"
    path.write_text(
        """
        field rational
        quiver { vertices: v ; arrows: y: v -> v ; x: v -> v }
        relations { x*x - x*y ; }
        """,
        encoding="utf-8",
    )
    code, _ = run_cli(["report", "--file", str(path)])
    assert code == cli.EXIT_NONCONFLUENT


def test_exit_code_infinite_dimensional(tmp_path):
    path = tmp_path / "free.dsl"
    path.write_text(
        "field rational\nquiver { vertices: v ; arrows: x: v -> v }",
        encoding="utf-8",
    )
    code, _ = run_cli(["report", "--file", str(path)])
    assert code == cli.EXIT_INFINITE


def test_exit_code_internal_consistency(monkeypatch):
    # negative control: tamper with the small-complex ranks so the two
    # complexes disagree
    from quiverhh.hochschild import SmallComplex

    def tampered(self):
        return (1, 1, 1)

    monkeypatch.setattr(SmallComplex, "hh_dims", tampered)
    code, _ = run_cli(["report", "--family", "torus-s", "--q", "1"])
    assert code == cli.EXIT_INTERNAL


def test_table_psi_examples_csv():
    code, out = run_cli(["table", "psi-examples", "--out", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "psi,stab,jj,hh0,hh1,hh2,cup_rank,cup_nonzero"
    assert len(lines) == 10
    assert lines[1].startswith('"ee:2,ff:2,hh:1",3,3,1,6,9')


def test_table_torus_sweep():
    code, out = run_cli(
        ["table", "torus-sweep", "--field", "fp:7", "--qs", "1,2,3", "--out", "json"]
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 6
    assert all(row["small_bar_agree"] for row in rows)


def test_table_feasibility():
    code, out = run_cli(["table", "feasibility", "--samples", "40", "--seed", "3", "--out", "json"])
    assert code == 0
    rows = json.loads(out)
    assert rows and all(row["feasible"] for row in rows)
    assert sum(row["count"] for row in rows) == 40


def test_table_rows_deterministic():
    argv = ["table", "feasibility", "--samples", "25", "--seed", "9", "--out", "json"]
    _, out1 = run_cli(argv)
    _, out2 = run_cli(argv)
    assert out1 == out2


def test_checks_fast():
    code, out = run_cli(["checks", "fast"])
    assert code == 0
    summary = json.loads(out)
    assert summary["ok"] is True
    assert not summary["failed"]


def test_checks_detect_tampered_differential(monkeypatch):
    # negative control: corrupt one bar-differential entry and require the
    # invariant suite to notice and exit 5 with a machine-readable list
    from quiverhh.hochschild import RelativeBarComplex

    orig = RelativeBarComplex.differential

    def tampered(self, n):
        m = orig(self, n)
        if n == 1 and m.entries:
            key = next(iter(m.entries))
            m.entries[key] = self.field.add(m.entries[key], self.field.one())
        return m

    monkeypatch.setattr(RelativeBarComplex, "differential", tampered)
    code, out = run_cli(["checks", "fast"])
    assert code == cli.EXIT_INTERNAL
    summary = json.loads(out)
    assert summary["ok"] is False
    assert any("d-squared-zero" == item["name"] for item in summary["failed"])


def test_trace_flag(capsys):
    code, _ = run_cli(["report", "--family", "pi", "--trace"])
    assert code == 0


def test_trace_reuses_the_engine_confluence_check(monkeypatch):
    from quiverhh.rewrite import ReductionSystem

    original = ReductionSystem.check_confluence
    calls = []

    def counted(system):
        calls.append(1)
        return original(system)

    monkeypatch.setattr(ReductionSystem, "check_confluence", counted)
    outputs = []
    for extra in ([], ["--trace"]):
        calls.clear()
        code, out = run_cli(["report", "--family", "pi"] + extra)
        assert code == 0
        outputs.append((len(calls), out))
    assert outputs[0] == outputs[1]
