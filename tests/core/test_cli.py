"""Tests for the ``python -m repro`` command-line interface.

The end-to-end test drives the real CLI in-process (no subprocess) with a
deliberately tiny configuration: train -> save artifact -> annotate a bundled
SPICE netlist -> render the JSON report.
"""

import argparse
import json
import re

import pytest

import repro.__main__ as entry_point
from repro.core import cli
from repro.core.cli import build_parser, main
from repro.core.server import ServerConfig
from repro.netlist import ssram, write_spice


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    assert "train" in capsys.readouterr().out


def test_subcommand_required():
    with pytest.raises(SystemExit):
        main([])


def test_documented_subcommands_match_the_parser():
    """The command lists of the ``repro.core.cli`` and ``repro.__main__``
    docstrings name exactly the subcommands the parser accepts."""
    (subparsers,) = [action for action in build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    commands = set(subparsers.choices)
    assert set(re.findall(r"^\* ``([a-z]+)``", cli.__doc__, re.M)) == commands
    listed = re.search(r"subcommands \(([^)]*)\)", entry_point.__doc__).group(1)
    assert {name.strip() for name in listed.split("/")} == commands


def test_bench_is_not_a_command(tmp_path, capsys):
    old, new = str(tmp_path / "old.json"), str(tmp_path / "new.json")
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--compare", old, new])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_workers_is_an_annotate_option_only(capsys):
    """Training datasets are extracted lists, so ``train`` has nothing to
    fork; ``annotate`` defaults to serial."""
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["train", "--out", "x", "--workers", "2"])
    assert excinfo.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert build_parser().parse_args(["annotate", "ckpt", "n.sp"]).workers == 0


def test_serve_defaults_are_the_server_config_defaults():
    args = build_parser().parse_args(["serve", "ckpt"])
    defaults = ServerConfig()
    assert (args.host, args.port, args.max_batch, args.request_timeout) == (
        defaults.host, defaults.port, defaults.max_batch,
        defaults.request_timeout_s)


def test_parser_presets_cover_all_configs():
    parser = build_parser()
    args = parser.parse_args(["train", "--out", "x", "--config", "benchmark"])
    assert args.config == "benchmark"


def test_bad_pairs_argument_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["annotate", str(tmp_path), "whatever.sp", "--pairs", "only_one_name"])


def test_missing_checkpoint_is_reported(tmp_path, capsys):
    code = main(["annotate", str(tmp_path / "nope"), "whatever.sp"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_report_on_missing_path(tmp_path, capsys):
    assert main(["report", str(tmp_path / "missing")]) == 2


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cli_e2e")
        netlist = root / "user_macro.sp"
        design = ssram(rows=4, cols=4)
        design.name = "USER_MACRO"
        netlist.write_text(write_spice(design))
        return root

    @pytest.fixture(scope="class")
    def artifact(self, workdir):
        out = workdir / "ckpt"
        code = main([
            "train", "--config", "fast", "--out", str(out),
            "--designs", "SSRAM", "TIMING_CONTROL",
            "--epochs", "1", "--scale", "0.25", "--max-links", "40",
            "--dim", "16", "--layers", "1", "--attention", "none",
        ])
        assert code == 0
        assert (out / "pipeline.npz").exists()
        return out

    def test_annotate_and_report(self, workdir, artifact, capsys):
        report = workdir / "report.json"
        annotated = workdir / "annotated"
        code = main([
            "annotate", str(artifact), str(workdir / "user_macro.sp"),
            "--pairs", "BL0,BL1", "--pairs", "BL0,BLB0",
            "--json", str(report), "--annotated-out", str(annotated),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "BL0" in out and "candidates" in out

        payload = json.loads(report.read_text())
        assert payload["num_candidates"] == 2
        assert payload["records"][0]["pair"] == ["BL0", "BL1"]
        annotated_netlist = annotated / "user_macro.annotated.sp"
        assert annotated_netlist.exists()
        assert annotated_netlist.read_text().rstrip().endswith(".end")

        code = main(["report", str(report)])
        assert code == 0
        assert "BL0" in capsys.readouterr().out

    def test_annotate_auto_candidates(self, workdir, artifact, capsys):
        code = main([
            "annotate", str(artifact), str(workdir / "user_macro.sp"),
            "--max-candidates", "6", "--threshold", "0.0",
        ])
        assert code == 0
        assert "out of 6 candidates" in capsys.readouterr().out

    def test_annotate_float32(self, workdir, artifact, tmp_path, capsys):
        """``--precision float32`` serves within 1e-4 of float64."""
        report64 = tmp_path / "report64.json"
        report32 = tmp_path / "report32.json"
        for precision, report in (("float64", report64), ("float32", report32)):
            code = main([
                "annotate", str(artifact), str(workdir / "user_macro.sp"),
                "--pairs", "BL0,BL1", "--pairs", "BL0,BLB0",
                "--precision", precision,
                "--json", str(report),
            ])
            assert code == 0
        recs64 = json.loads(report64.read_text())["records"]
        recs32 = json.loads(report32.read_text())["records"]
        for r64, r32 in zip(recs64, recs32):
            assert r32["pair"] == r64["pair"]
            assert abs(r32["coupling_probability"]
                       - r64["coupling_probability"]) <= 1e-4

    def test_annotate_unknown_pair_reports_error(self, workdir, artifact, capsys):
        code = main([
            "annotate", str(artifact), str(workdir / "user_macro.sp"),
            "--pairs", "nope,also_nope",
        ])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_annotate_emits_completed_reports_before_failing(self, workdir, artifact,
                                                             tmp_path, capsys):
        """A bad netlist mid-list must not discard earlier designs' output."""
        bad = tmp_path / "bad.sp"
        bad.write_text("C0 other_a other_b 1f\n.end\n")
        annotated = tmp_path / "annotated"
        code = main([
            "annotate", str(artifact),
            str(workdir / "user_macro.sp"), str(bad),
            "--pairs", "BL0,BL1", "--annotated-out", str(annotated),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert "BL0" in captured.out              # first design was printed...
        assert "not found" in captured.err        # ...before the error surfaced
        assert (annotated / "user_macro.annotated.sp").exists()

    def test_annotate_multiple_netlists_with_workers(self, workdir, artifact, capsys):
        code = main([
            "annotate", str(artifact),
            str(workdir / "user_macro.sp"), str(workdir / "user_macro.sp"),
            "--pairs", "BL0,BL1", "--workers", "2",
        ])
        assert code == 0
        assert capsys.readouterr().out.count("out of 1 candidates") == 2

    def test_annotate_sharded(self, workdir, artifact, tmp_path, capsys):
        """``--shards N`` annotates the hierarchical netlist in pieces."""
        report = tmp_path / "sharded.json"
        annotated = tmp_path / "annotated"
        code = main([
            "annotate", str(artifact), str(workdir / "user_macro.sp"),
            "--pairs", "BL0,BL1", "--pairs", "BL0,BLB0",
            "--shards", "2", "--json", str(report),
            "--annotated-out", str(annotated),
        ])
        assert code == 0
        assert "user_macro" in capsys.readouterr().out
        payload = json.loads(report.read_text())
        assert [r["pair"] for r in payload["records"]] \
            == [["BL0", "BL1"], ["BL0", "BLB0"]]
        assert (annotated / "user_macro.annotated.sp").exists()

    def test_annotate_sharded_auto_candidates(self, workdir, artifact, capsys):
        code = main([
            "annotate", str(artifact), str(workdir / "user_macro.sp"),
            "--shards", "2", "--max-candidates", "4", "--threshold", "0.0",
        ])
        assert code == 0
        assert "candidates" in capsys.readouterr().out

    def test_shards_rejected_with_remote(self, workdir, capsys):
        code = main([
            "annotate", "-", str(workdir / "user_macro.sp"),
            "--remote", "http://127.0.0.1:1", "--shards", "2",
        ])
        assert code == 2
        assert "--shards" in capsys.readouterr().err

    def test_sharded_unknown_pair_reports_error(self, workdir, artifact, capsys):
        code = main([
            "annotate", str(artifact), str(workdir / "user_macro.sp"),
            "--pairs", "nope,also_nope", "--shards", "2",
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_reannotate_end_to_end(self, workdir, artifact, tmp_path, capsys):
        """annotate --json -> edit the netlist -> reannotate --prev."""
        report = tmp_path / "base.json"
        code = main([
            "annotate", str(artifact), str(workdir / "user_macro.sp"),
            "--pairs", "BL0,BL1", "--pairs", "WL0,WL1", "--threshold", "0.0",
            "--json", str(report),
        ])
        assert code == 0
        eco = tmp_path / "user_macro_eco.sp"
        base_text = (workdir / "user_macro.sp").read_text()
        eco.write_text(base_text.replace(
            ".end", "CECO BL0 VSS 2f\n.end"))
        updated = tmp_path / "updated.json"
        capsys.readouterr()
        code = main([
            "reannotate", str(artifact), str(workdir / "user_macro.sp"),
            str(eco), "--prev", str(report), "--threshold", "0.0",
            "--json", str(updated),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "recomputed" in out and "reused" in out
        payload = json.loads(updated.read_text())
        assert [r["pair"] for r in payload["records"]] \
            == [["BL0", "BL1"], ["WL0", "WL1"]]
        summary = payload["incremental"]
        assert summary["recomputed"] >= 1                  # the BL0 pair
        assert summary["reused"] + summary["recomputed"] == 2

    def test_reannotate_in_place_edits_keep_the_new_file_order(
            self, workdir, artifact, tmp_path, capsys, monkeypatch):
        """Resizing INV_X1's NMOS edits every inverter in place: the
        revision lists the devices in the new file's order, and its records
        equal an annotate of the new file."""
        from repro.core.serve import AnnotationEngine
        from repro.core.server import dumps_canonical
        from repro.netlist import parse_spice_file

        pairs = ["--pairs", "BL0,BL1", "--pairs", "rdec_sel0,rdec_n0",
                 "--pairs", "rdec_sel1,WL1"]
        base = tmp_path / "base.json"
        assert main(["annotate", str(artifact), str(workdir / "user_macro.sp"), *pairs,
                     "--json", str(base)]) == 0
        text = (workdir / "user_macro.sp").read_text()
        line = "MN1 Y A VSS VSS nch W=120n"
        assert line in text
        eco = tmp_path / "user_macro_resized.sp"
        eco.write_text(text.replace(line, "MN1 Y A VSS VSS nch W=240n", 1))
        revisions = []
        reannotate = AnnotationEngine.reannotate

        def spy(engine, *args, **kwargs):
            revisions.append(reannotate(engine, *args, **kwargs))
            return revisions[-1]

        monkeypatch.setattr(AnnotationEngine, "reannotate", spy)
        updated, scratch = tmp_path / "updated.json", tmp_path / "scratch.json"
        assert main(["reannotate", str(artifact), str(workdir / "user_macro.sp"),
                     str(eco), "--prev", str(base), "--json", str(updated)]) == 0
        assert main(["annotate", str(artifact), str(eco), *pairs,
                     "--json", str(scratch)]) == 0
        capsys.readouterr()
        (revision,) = revisions
        assert revision.incremental["recomputed"] >= 1
        new_order = [d.name for d in parse_spice_file(str(eco)).flatten().devices]
        assert [d.name for d in revision.circuit.devices] == new_order
        assert dumps_canonical(json.loads(updated.read_text())["records"]) \
            == dumps_canonical(json.loads(scratch.read_text())["records"])

    def test_reannotate_rejects_multi_design_report(self, workdir, artifact,
                                                    tmp_path, capsys):
        bogus = tmp_path / "multi.json"
        bogus.write_text(json.dumps({"reports": []}))
        code = main([
            "reannotate", str(artifact), str(workdir / "user_macro.sp"),
            str(workdir / "user_macro.sp"), "--prev", str(bogus),
        ])
        assert code == 2
        assert "report" in capsys.readouterr().err

