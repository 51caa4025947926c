import concurrent.futures

import numpy as np
import pytest

from anisodiff import cli, evaluation
from anisodiff.cli import _config_from_args, build_parser, main
from anisodiff.diffusion import DiffusionConfig
from anisodiff.data import (
    gaussian_blobs,
    read_features,
    read_label_pairs,
    read_manifest,
    two_moons,
    write_features,
    write_graph_triplets,
    write_labels,
)
from anisodiff.errors import AnisodiffError, ParameterError
from anisodiff.graph import build_knn_graph, pairwise_distances


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
        D = pairwise_distances(read_features(out / "features.txt"))
        write_graph_triplets(build_knn_graph(D, 5), tmp_path / "expected.txt")
        assert gpath.read_bytes() == (tmp_path / "expected.txt").read_bytes()

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
            ("variant=diagonal", "config variant must be one of"),
            ("bogus=1", "unknown config key 'bogus'"),
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
    @pytest.mark.parametrize(
        "shift, labeled, missing",
        [(0, "0 0\n79 7\n", 7), (1, "0 0\n79 1\n", 0)],
        ids=["beyond_range", "below_shifted_truth"],
    )
    def test_labeled_class_the_truth_lacks_runtime_error(
        self, tmp_path, capsys, command, shift, labeled, missing
    ):
        out = synth_moons(tmp_path)
        _, cls = read_label_pairs(out / "labels.txt")
        truth, train = tmp_path / "truth.txt", tmp_path / "train.txt"
        write_labels(cls + shift, truth)
        train.write_text(labeled)
        code = run_cli(
            [command, "--features", out / "features.txt", "--labels", train,
             "--truth", truth, "--K", 5, "--out", tmp_path / "p.txt"]
        )
        assert code == 1
        assert f"{train}: class {missing} is not a class of {truth}" in capsys.readouterr().err
        assert not (tmp_path / "p.txt").exists()

    @pytest.mark.parametrize("command", ["propagate", "grf"])
    @pytest.mark.parametrize("labeled", [[0, 1, 79, 78], [0, 1]], ids=["both", "first_only"])
    def test_labeled_classes_remapped_as_the_truth(self, tmp_path, capsys, command, labeled):
        # truth classes {1, 2} give the {0, 1} run, with predictions in the file's ids
        out = synth_moons(tmp_path)
        _, cls = read_label_pairs(out / "labels.txt")
        runs = []
        for shift in (0, 1):
            truth, train = tmp_path / f"truth{shift}.txt", tmp_path / f"train{shift}.txt"
            write_labels(cls + shift, truth)
            write_labels(cls + shift, train, indices=np.array(labeled))
            pred = tmp_path / f"pred{shift}.txt"
            code = run_cli(
                [command, "--features", out / "features.txt", "--labels", train,
                 "--truth", truth, "--K", 5, "--out", pred]
            )
            assert code == 0
            stdout = capsys.readouterr().out
            runs.append((stdout.splitlines()[-1], read_label_pairs(pred)[1]))
        (error, pred), (shifted_error, shifted_pred) = runs
        assert error.startswith("test_error=") and shifted_error == error
        assert np.array_equal(shifted_pred, pred + 1)


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
        kv = (tmp_path / "r1.kv").read_text().splitlines()
        assert [ln.split()[0] for ln in kv if ln.startswith("method=")] == [
            "method=I", "method=GRF"
        ]

    @pytest.mark.parametrize(
        "synth_flags, dataset, train_labels",
        [
            (["--kind", "two-moons"], lambda: two_moons(60, 0.1, seed=0), 4),
            (["--kind", "blobs", "--classes", 4, "--separation", 3],
             lambda: gaussian_blobs(60, 4, 3.0, 2, seed=0), 8),
        ],
        ids=["two-moons", "blobs"],
    )
    def test_synth_then_benchmark_is_the_library_comparison(
        self, tmp_path, synth_flags, dataset, train_labels
    ):
        data = tmp_path / "data"
        assert run_cli(["synth", *synth_flags, "--n", 60, "--out", data]) == 0
        code = run_cli(
            ["benchmark", "--features", data / "features.txt",
             "--labels", data / "labels.txt", "--methods", "I,GRF",
             "--seeds", "0,1", "--train-labels", train_labels, "--out", tmp_path / "r"]
        )
        assert code == 0
        report = evaluation.benchmark(dataset(), ["I", "GRF"], [0, 1], train_labels=train_labels)
        # the dataset= line names the file's dataset, not the generator's
        kv, expected = (
            [ln for ln in text.splitlines() if not ln.startswith("dataset=")]
            for text in ((tmp_path / "r.kv").read_text(), evaluation.report_kv(report))
        )
        assert kv == expected

    def test_reports_identical_for_one_or_two_processes(self, tmp_path, monkeypatch):
        out = synth_moons(tmp_path, n=60, seed=11)
        args = [
            "benchmark", "--features", out / "features.txt",
            "--labels", out / "labels.txt", "--methods", "I,A_nlin,A_S,GRF",
            "--seeds", "0,1", "--train-labels", 4,
            "--grid-K", "4,6", "--grid-T", "5,10", "--grid-sigma-f", "0.2,1",
        ]
        # benchmark runs in one process per usable CPU
        for n in (1, 2):
            monkeypatch.setattr(evaluation, "usable_cpus", lambda: n)
            assert run_cli(args + ["--out", tmp_path / f"p{n}"]) == 0
        for ext in ("txt", "kv"):
            assert (tmp_path / f"p1.{ext}").read_bytes() == (tmp_path / f"p2.{ext}").read_bytes()

    @pytest.mark.parametrize(
        "extra",
        [["--grid-sigma-f", 1e-200], ["--delta", -1, "--warm-start", -5]],
        ids=["sigma-f", "delta-warm-start"],
    )
    def test_bad_argument_rejected_before_any_worker_starts(
        self, tmp_path, monkeypatch, extra
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(evaluation, "usable_cpus", lambda: 2)
        out = synth_moons(tmp_path, n=60)
        with pytest.raises(SystemExit) as exc:
            run_cli(["benchmark", "--features", out / "features.txt",
                     "--labels", out / "labels.txt", "--methods", "I,GRF",
                     "--seeds", "0,1", "--train-labels", 4, "--grid-T", 5,
                     "--out", tmp_path / "r", *extra])
        assert exc.value.code == 2
        assert not (tmp_path / "r.kv").exists()

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
        assert "seeds must name at least one seed" in capsys.readouterr().err
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


# base command lines of the exit-code table; a flag given twice takes its last value
_BASE = {
    "synth": ["synth", "--out", "{out}"],
    "build-graph": ["build-graph", "--features", "{features}", "--out", "{out}"],
    "propagate": ["propagate", "--features", "{features}", "--labels", "{train}",
                  "--K", 5, "--T", 5, "--out", "{out}"],
    "grf": ["grf", "--features", "{features}", "--labels", "{train}", "--out", "{out}"],
    "benchmark": ["benchmark", "--features", "{features}", "--labels", "{truth}",
                  "--methods", "I", "--train-labels", 4, "--grid-T", 5,
                  "--grid-sigma-f", 0.2, "--out", "{out}"],
}


def _error_classes(base=AnisodiffError):
    for cls in base.__subclasses__():
        yield cls
        yield from _error_classes(cls)


class TestExitCodeRule:
    """A bad argument is a usage error in every subcommand; bad file contents are not."""

    @pytest.mark.parametrize("error", list(_error_classes()), ids=lambda cls: cls.__name__)
    def test_each_package_error_has_its_exit_code(self, tmp_path, capsys, monkeypatch, error):
        # one argument fits every constructor; UnlabeledComponentError's is the nodes
        exc = error([3, 4])

        def fail(parser, args):
            raise exc

        monkeypatch.setattr(cli, "cmd_synth", fail)
        args = ["synth", "--kind", "two-moons", "--n", 10, "--out", tmp_path / "x"]
        if error is ParameterError:
            with pytest.raises(SystemExit) as stop:
                run_cli(args)
            assert stop.value.code == 2
            assert capsys.readouterr().err.endswith(f"anisodiff: error: {exc}\n")
        else:
            assert run_cli(args) == 1
            assert capsys.readouterr().err == f"error: {exc}\n"

    @pytest.fixture
    def paths(self, tmp_path):
        data = synth_moons(tmp_path, n=60)
        train = tmp_path / "train.txt"
        train.write_text("0 0\n59 1\n")
        return {"features": data / "features.txt", "truth": data / "labels.txt",
                "train": train, "out": tmp_path / "out"}

    @pytest.mark.parametrize(
        "command, extra, message",
        [
            ("propagate", ["--delta", -1], "delta must be positive"),
            ("benchmark", ["--delta", -1], "delta must be positive"),
            # an infinite step is a usage error, not a run that diverged
            ("propagate", ["--delta", "inf"], "delta must be positive and finite, got inf"),
            ("benchmark", ["--delta", "inf"], "delta must be positive and finite, got inf"),
            ("propagate", ["--warm-start", -1], "warm_start_steps must be"),
            ("benchmark", ["--warm-start", -1], "warm_start_steps must be"),
            ("grf", ["--K", 500], "K must satisfy 1 <= K <= n-1 = 59"),
            ("build-graph", ["--K", 500], "K must satisfy 1 <= K <= n-1 = 59"),
            ("benchmark", ["--grid-K", 500], "K must satisfy 1 <= K <= n-1 = 59"),
            ("synth", ["--kind", "two-moons", "--n", 5], "n must be even"),
            ("synth", ["--kind", "two-moons", "--n", 60, "--noise", -1], "noise_sd"),
            ("synth", ["--kind", "blobs", "--n", 60, "--classes", 1], "n >= c >= 2"),
            ("synth", ["--kind", "blobs", "--n", 60, "--dim", 0], "d must be >= 1"),
            ("synth", ["--kind", "two-moons", "--n", 10, "--seed", -1],
             "seed must be an integer >= 0, got -1"),
            ("synth", ["--kind", "blobs", "--n", 60, "--seed", -1],
             "seed must be an integer >= 0, got -1"),
            ("synth", ["--kind", "two-moons", "--n", 60, "--noise", "nan"],
             "noise_sd must be finite and >= 0, got nan"),
            ("synth", ["--kind", "two-moons", "--n", 60, "--noise", "inf"],
             "noise_sd must be finite and >= 0, got inf"),
            ("synth", ["--kind", "blobs", "--n", 60, "--separation", "nan"],
             "separation must be finite and >= 0, got nan"),
            ("synth", ["--kind", "blobs", "--n", 60, "--separation", "inf"],
             "separation must be finite and >= 0, got inf"),
            ("synth", ["--kind", "two-moons", "--n", 10, "--classes", 5, "--dim", 7,
                       "--separation", 3], "--classes applies to --kind blobs only"),
            ("synth", ["--kind", "two-moons", "--n", 10, "--sep", 3],
             "--separation applies to --kind blobs only"),
            ("synth", ["--kind", "blobs", "--n", 30, "--noise", 0.5],
             "--noise applies to --kind two-moons only"),
            ("benchmark", ["--seeds", -1], "seed must be an integer >= 0"),
            ("benchmark", ["--seeds", ","], "seeds must name at least one seed"),
            ("benchmark", ["--train-labels", 100], "2l < n"),
            # n/2 labels each for train and validation leave no test row
            ("benchmark", ["--train-labels", 30], "need 2l < n, or the test set is empty"),
            ("benchmark", ["--methods", "I,LNP"], "unknown method 'LNP'"),
            ("benchmark", ["--methods", ","], "methods must name at least one method"),
            ("benchmark", ["--methods", "GRF", "--delta", -1, "--warm-start", -5],
             "warm_start_steps must be"),
            ("benchmark", ["--methods", "GRF", "--delta", -1], "delta must be positive"),
            ("propagate", ["--sigma-f", 1e-200], "sigma_f must be positive with a nonzero square"),
            ("benchmark", ["--grid-sigma-f", 1e-200],
             "sigma_f must be positive with a nonzero square"),
            # an infinite scale makes every q 1, the isotropic field
            ("propagate", ["--sigma-f", "inf", "--variant", "match"],
             "sigma_f must be positive with a nonzero square and finite, got inf"),
            ("benchmark", ["--grid-sigma-f", "inf"],
             "sigma_f must be positive with a nonzero square and finite, got inf"),
            # the same for sigma_x: every weight would be 1
            ("build-graph", ["--K", 4, "--sigma-x", "inf"],
             "sigma_x must be positive and finite, got inf"),
        ],
    )
    def test_bad_argument_usage_error(self, paths, capsys, command, extra, message):
        args = [str(a).format(**paths) for a in _BASE[command] + extra]
        with pytest.raises(SystemExit) as exc:
            run_cli(args)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "anisodiff: error:" in err and message in err
        assert not list(paths["out"].parent.glob("out*"))

    @pytest.mark.parametrize(
        "flag, contents, message",
        [
            ("--features", "0 0\n1 nan\n2 2\n", "features contain non-finite entries"),
            ("--distances", "0 1 1.0\n0 2 -1.0\n1 2 1.0\n",
             "distance matrix contains negative entries"),
            # a dense matrix of this n would take terabytes
            ("--distances", "0 1 0.5\n1000000 1 0.5\n", "2 lines for n=1000001 nodes"),
        ],
        ids=["features-nan", "triplet-negative", "triplet-sparse"],
    )
    def test_bad_file_contents_runtime_error(self, paths, capsys, flag, contents, message):
        bad = paths["out"].parent / "bad.txt"
        bad.write_text(contents)
        code = run_cli(["build-graph", flag, bad, "--K", 1, "--out", paths["out"]])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: {message}")
        assert "Traceback" not in err
        assert not paths["out"].exists()

    @pytest.mark.parametrize(
        "flag, contents, message",
        [
            ("--features", ",\n", ":1: a row of only delimiters holds no values"),
            ("--truth", "0 0\n1e20 1\n", ": indices and classes must be integers >= 0 and < 2**63"),
        ],
        ids=["features-delimiters", "truth-beyond-int64"],
    )
    def test_unreadable_table_runtime_error(self, paths, capsys, flag, contents, message):
        bad = paths["out"].parent / "bad.txt"
        bad.write_text(contents)
        args = [str(a).format(**paths) for a in _BASE["propagate"] + [flag, bad]]
        assert run_cli(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}{message}")
        assert "Traceback" not in err
        assert not paths["out"].exists()


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
