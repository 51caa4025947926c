import numpy as np
import pytest

from anisodiff import evaluation
from anisodiff.cli import _config_from_args, build_parser, main
from anisodiff.diffusion import DiffusionConfig
from anisodiff.data import (
    read_label_pairs,
    read_manifest,
    two_moons,
    write_features,
    write_labels,
)


def run_cli(args):
    return main([str(a) for a in args])


def synth_moons(tmp_path, n=80, seed=3):
    out = tmp_path / "moons"
    code = run_cli(["synth", "--kind", "two-moons", "--n", n, "--seed", seed, "--out", out])
    assert code == 0
    return out


class TestSynth:
    def test_writes_dataset_files(self, tmp_path):
        out = synth_moons(tmp_path, n=60)
        features = (out / "features.txt").read_text().splitlines()
        assert len(features) == 60
        manifest = read_manifest(out / "manifest.txt")
        assert manifest["n"] == "60" and manifest["c"] == "2"
        idx, cls = read_label_pairs(out / "labels.txt")
        assert len(idx) == 60 and set(cls.tolist()) == {0, 1}

    def test_identical_bytes_on_repeat(self, tmp_path):
        a = synth_moons(tmp_path / "a")
        b = synth_moons(tmp_path / "b")
        assert (a / "features.txt").read_bytes() == (b / "features.txt").read_bytes()
        assert (a / "labels.txt").read_bytes() == (b / "labels.txt").read_bytes()

    def test_odd_n_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["synth", "--kind", "two-moons", "--n", 61, "--out", tmp_path / "x"])
        assert exc.value.code == 2

    def test_blobs(self, tmp_path):
        out = tmp_path / "blobs"
        code = run_cli(
            ["synth", "--kind", "blobs", "--n", 45, "--classes", 3,
             "--separation", 9.0, "--seed", 1, "--out", out]
        )
        assert code == 0
        assert read_manifest(out / "manifest.txt")["c"] == "3"


class TestBuildGraph:
    def test_exports_triplets(self, tmp_path, capsys):
        out = synth_moons(tmp_path)
        gpath = tmp_path / "graph.txt"
        code = run_cli(
            ["build-graph", "--features", out / "features.txt", "--K", 5, "--out", gpath]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "n=80" in captured and "sigma_x=" in captured
        from anisodiff.data import read_graph_triplets

        g = read_graph_triplets(gpath, n=80)
        assert g.n == 80

    def test_k_out_of_range(self, tmp_path):
        out = synth_moons(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run_cli(
                ["build-graph", "--features", out / "features.txt", "--K", 99,
                 "--out", tmp_path / "g.txt"]
            )
        assert exc.value.code == 2


class TestPropagate:
    def test_separated_blobs_zero_error(self, tmp_path, capsys):
        out = tmp_path / "blobs"
        run_cli(
            ["synth", "--kind", "blobs", "--n", 60, "--classes", 2,
             "--separation", 10.0, "--seed", 2, "--out", out]
        )
        idx, cls = read_label_pairs(out / "labels.txt")
        first = [int(np.nonzero(cls == c)[0][0]) for c in range(2)]
        train = tmp_path / "train.txt"
        train.write_text("".join(f"{i} {cls[i]}\n" for i in first))
        pred = tmp_path / "pred.txt"
        code = run_cli(
            ["propagate", "--features", out / "features.txt", "--labels", train,
             "--truth", out / "labels.txt", "--variant", "iso", "--K", 5,
             "--T", 50, "--out", pred]
        )
        assert code == 0
        assert "test_error=0" in capsys.readouterr().out

    def test_t0_warm0_unlabeled_decode_to_class_zero(self, tmp_path):
        out = synth_moons(tmp_path)
        train = tmp_path / "train.txt"
        train.write_text("0 0\n79 1\n")
        pred = tmp_path / "pred.txt"
        code = run_cli(
            ["propagate", "--features", out / "features.txt", "--labels", train,
             "--K", 5, "--T", 0, "--warm-start", 0, "--out", pred]
        )
        assert code == 0
        idx, cls = read_label_pairs(pred)
        assert cls[1] == 0 and cls[50] == 0  # all-zero rows tie-break
        assert cls[79] == 1

    def test_missing_labels_flag_usage_error(self, tmp_path):
        out = synth_moons(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run_cli(
                ["propagate", "--features", out / "features.txt",
                 "--out", tmp_path / "p.txt"]
            )
        assert exc.value.code == 2

    def test_missing_labels_file_usage_error(self, tmp_path):
        out = synth_moons(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run_cli(
                ["propagate", "--features", out / "features.txt",
                 "--labels", tmp_path / "nope.txt", "--out", tmp_path / "p.txt"]
            )
        assert exc.value.code == 2

    def test_unknown_flag_rejected(self, tmp_path):
        out = synth_moons(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run_cli(["propagate", "--features", out / "features.txt", "--bogus", 1])
        assert exc.value.code == 2

    def test_config_file_flags_win(self, tmp_path, capsys):
        out = synth_moons(tmp_path)
        train = tmp_path / "train.txt"
        train.write_text("0 0\n79 1\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("K=3\nT=5\nvariant=smooth\nsigma_f=0.2\n")
        trace = tmp_path / "trace.csv"
        pred = tmp_path / "pred.txt"
        code = run_cli(
            ["propagate", "--features", out / "features.txt", "--labels", train,
             "--config", cfg, "--T", 2, "--trace", trace, "--out", pred]
        )
        assert code == 0
        # --T flag wins over config T=5: trace has warm(1 line for t=0) + 2 steps
        assert len(trace.read_text().splitlines()) == 3

    def test_abbreviated_flags_win_over_config(self, tmp_path):
        out = synth_moons(tmp_path)
        train = tmp_path / "train.txt"
        train.write_text("0 0\n79 1\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("K=4\nT=3\nvariant=plain\nsigma_f=5\nclamp_labels=no\n")
        traces = {}
        for name, flags in (
            ("full", ["--sigma-f", 0.3, "--clamp-labels"]),
            ("abbreviated", ["--sigma", 0.3, "--clamp"]),
        ):
            traces[name] = tmp_path / f"{name}.csv"
            code = run_cli(
                ["propagate", "--features", out / "features.txt", "--labels", train,
                 "--config", cfg, *flags, "--trace", traces[name],
                 "--out", tmp_path / f"{name}.txt"]
            )
            assert code == 0
        assert traces["full"].read_bytes() == traces["abbreviated"].read_bytes()

    @pytest.mark.parametrize(
        "line, key",
        [
            ("K=abc", "'K'"),
            ("sigma_f=wide", "'sigma_f'"),
            ("warm_start=2.5", "'warm_start'"),
            ("clamp_labels=maybe", "'clamp_labels'"),
            ("no equals sign", "expected key=value"),
        ],
    )
    def test_bad_config_value_usage_error(self, tmp_path, capsys, line, key):
        out = synth_moons(tmp_path)
        train = tmp_path / "train.txt"
        train.write_text("0 0\n79 1\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"T=2\n{line}\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(
                ["propagate", "--features", out / "features.txt", "--labels", train,
                 "--config", cfg, "--out", tmp_path / "p.txt"]
            )
        assert exc.value.code == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "p.txt").exists()

    def test_config_clamp_labels_spellings(self):
        from anisodiff.cli import CONFIG_KEYS

        parse = CONFIG_KEYS["clamp_labels"]
        spellings = ("1", "true", "YES", "0", "False", "no")
        assert [parse(raw) for raw in spellings] == [True] * 3 + [False] * 3

    def test_energy_trace_written(self, tmp_path):
        out = synth_moons(tmp_path)
        train = tmp_path / "train.txt"
        train.write_text("0 0\n79 1\n")
        trace = tmp_path / "trace.csv"
        code = run_cli(
            ["propagate", "--features", out / "features.txt", "--labels", train,
             "--K", 5, "--T", 4, "--variant", "match", "--sigma-f", "0.3",
             "--trace", trace, "--out", tmp_path / "p.txt"]
        )
        assert code == 0
        lines = trace.read_text().splitlines()
        assert len(lines) == 5
        assert all("," in ln for ln in lines)


class TestGrf:
    def test_predictions_and_error(self, tmp_path, capsys):
        out = tmp_path / "blobs"
        run_cli(
            ["synth", "--kind", "blobs", "--n", 40, "--classes", 2,
             "--separation", 12.0, "--seed", 5, "--out", out]
        )
        idx, cls = read_label_pairs(out / "labels.txt")
        train = tmp_path / "train.txt"
        first = [int(np.nonzero(cls == c)[0][0]) for c in range(2)]
        train.write_text("".join(f"{i} {cls[i]}\n" for i in first))
        code = run_cli(
            ["grf", "--features", out / "features.txt", "--labels", train,
             "--truth", out / "labels.txt", "--K", 4, "--out", tmp_path / "p.txt"]
        )
        assert code == 0
        assert "test_error=0" in capsys.readouterr().out


class TestLabeledInputs:
    """Checks that propagate and grf share through one input loader."""

    @pytest.mark.parametrize("command", ["propagate", "grf"])
    def test_empty_labels_file_runtime_error(self, tmp_path, capsys, command):
        out = synth_moons(tmp_path)
        train = tmp_path / "train.txt"
        train.write_text("# no labels\n")
        code = run_cli(
            [command, "--features", out / "features.txt", "--labels", train,
             "--K", 5, "--out", tmp_path / "p.txt"]
        )
        assert code == 1
        assert "no data rows" in capsys.readouterr().err
        assert not (tmp_path / "p.txt").exists()

    @pytest.mark.parametrize("command", ["propagate", "grf"])
    def test_labeled_class_beyond_truth_runtime_error(self, tmp_path, capsys, command):
        out = synth_moons(tmp_path)
        train = tmp_path / "train.txt"
        train.write_text("0 0\n79 7\n")
        code = run_cli(
            [command, "--features", out / "features.txt", "--labels", train,
             "--truth", out / "labels.txt", "--K", 5, "--out", tmp_path / "p.txt"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "labeled classes exceed ground-truth class range" in err
        assert not (tmp_path / "p.txt").exists()


class TestBenchmark:
    def test_two_rows_and_byte_identical_reports(self, tmp_path):
        out = synth_moons(tmp_path, n=60, seed=11)
        args = [
            "benchmark", "--features", out / "features.txt",
            "--labels", out / "labels.txt", "--methods", "I,GRF",
            "--seeds", "0,1", "--train-labels", 4,
            "--grid-K", "5", "--grid-T", "10", "--grid-sigma-f", "0.2",
        ]
        code = run_cli(args + ["--out", tmp_path / "r1"])
        assert code == 0
        code = run_cli(args + ["--out", tmp_path / "r2"])
        assert code == 0
        assert (tmp_path / "r1.txt").read_bytes() == (tmp_path / "r2.txt").read_bytes()
        assert (tmp_path / "r1.kv").read_bytes() == (tmp_path / "r2.kv").read_bytes()
        table = (tmp_path / "r1.txt").read_text()
        assert "I" in table and "GRF" in table
        from anisodiff.evaluation import parse_report_kv

        report = parse_report_kv((tmp_path / "r1.kv").read_text())
        assert [r.method for r in report.rows] == ["I", "GRF"]

    @pytest.mark.parametrize("seeds", ["", ","])
    def test_empty_seed_list_usage_error(self, tmp_path, capsys, seeds):
        out = synth_moons(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run_cli(
                ["benchmark", "--features", out / "features.txt",
                 "--labels", out / "labels.txt", "--methods", "I",
                 "--seeds", seeds, "--out", tmp_path / "r"]
            )
        assert exc.value.code == 2
        assert "--seeds must name at least one seed" in capsys.readouterr().err
        assert not (tmp_path / "r.kv").exists()

    def test_unknown_method_usage_error(self, tmp_path, capsys):
        out = synth_moons(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run_cli(
                ["benchmark", "--features", out / "features.txt",
                 "--labels", out / "labels.txt", "--methods", "I,LNP",
                 "--out", tmp_path / "r"]
            )
        assert exc.value.code == 2
        assert "A_LM" in capsys.readouterr().err  # lists the valid methods


class TestDefaults:
    """Every flag default is read from DiffusionConfig or GridSpec."""

    def test_propagate_defaults_are_the_config_defaults(self):
        parser = build_parser()
        args = parser.parse_args(
            ["propagate", "--features", "x", "--labels", "y", "--out", "z"]
        )
        assert _config_from_args(parser, args) == DiffusionConfig()

    def test_benchmark_defaults_are_the_grid_and_config_defaults(
        self, tmp_path, monkeypatch
    ):
        data = synth_moons(tmp_path)
        seen = {}

        class Stop(Exception):
            pass

        def record(dataset, methods, seeds, grid, **kwargs):
            seen.update(kwargs, grid=grid)
            raise Stop

        monkeypatch.setattr(evaluation, "benchmark", record)
        with pytest.raises(Stop):
            run_cli(["benchmark", "--features", data / "features.txt",
                     "--labels", data / "labels.txt", "--methods", "I",
                     "--out", tmp_path / "r"])
        defaults = DiffusionConfig()
        assert seen == {
            "grid": evaluation.GridSpec(),
            "train_labels": None,
            "delta": defaults.delta,
            "warm_start_steps": defaults.warm_start_steps,
        }
