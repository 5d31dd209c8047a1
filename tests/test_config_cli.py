import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hartogs import cli
from hartogs.cli import _parse_h_list, main
from hartogs.config import parse_config_text
from hartogs.domains import DomainKind
from hartogs.errors import ConfigError
from hartogs.fixtures import AcceptanceSummary, CriterionResult
from hartogs.reporting import to_json

DISC_CONFIG = """\
# the unit disc with the standard potential
base.kind = ball
base.dims = 1
base.mu = 1
fiber.dim = 1
scale.h = 1
"""

FOCK_CONFIG = """\
base.kind = fock
base.dims = 1
base.mu = 1
fiber.dim = 1
"""

# c = (-4, -2): tau = 0 on a base that is not Einstein
POLYDISC_HALF_CONFIG = """\
base.kind = polydisc
base.dims = 1,1
base.mu = 1/2,1
"""


class TestConfigParsing:
    def test_disc(self):
        parsed = parse_config_text(DISC_CONFIG)
        assert parsed.spec.base.kind is DomainKind.BALL
        assert parsed.spec.fiber_dim == 1
        assert parsed.facts is None

    def test_fraction_values(self):
        parsed = parse_config_text(
            "base.kind = ball\nbase.dims = 1\nbase.mu = 1/2\n"
        )
        assert parsed.spec.base.exponents == (0.5,)

    def test_polydisc_lists(self):
        parsed = parse_config_text(
            "base.kind = polydisc\nbase.dims = 1,1\nbase.mu = 1,2\n"
        )
        assert parsed.spec.base.dims == (1, 1)
        assert parsed.spec.base.exponents == (1.0, 2.0)

    def test_cartan_shape(self):
        parsed = parse_config_text(
            "base.kind = cartan_type_I\nbase.dims = 2,3\nbase.mu = 1\n"
        )
        assert parsed.spec.base.shape == (2, 3)
        assert parsed.spec.base.dim == 6

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("base.kind = ball\nbase.colour = red\n")
        assert err.value.line == 2

    def test_syntax_error_reports_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("base.kind = ball\nnonsense line\n")
        assert err.value.line == 2

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="base.mu"):
            parse_config_text("base.kind = ball\nbase.dims = 1\n")

    def test_bad_number(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("base.kind = ball\nbase.dims = 1\nbase.mu = abc\n")
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "line",
        [
            "base.mu = nan",
            "base.mu = inf",
            "base.mu = 1e400",
            "base.mu = " + "9" * 400 + "/1",
            "scale.h = nan",
            "scale.h = -inf",
            "base.genus = nan",
            "base.einstein_constant = inf",
        ],
    )
    def test_non_finite_numbers_rejected(self, line):
        mu = "" if line.startswith("base.mu") else "base.mu = 1\n"
        text = f"base.kind = ball\nbase.dims = 1\n{mu}{line}\n"
        with pytest.raises(ConfigError, match="finite") as err:
            parse_config_text(text)
        assert err.value.line == text.count("\n")

    @pytest.mark.parametrize("text", ["nan", "inf", "1,-inf", "0.5,nan", "0", "-1"])
    def test_h_list_rejects_non_finite_and_non_positive(self, text):
        with pytest.raises(ValueError, match="positive and finite"):
            _parse_h_list(text)

    def test_user_facts(self):
        parsed = parse_config_text(
            "base.kind = ball\nbase.dims = 1\nbase.mu = 1\n"
            "facts.euclidean = yes\nfacts.hyperbolic = no\n"
        )
        assert parsed.facts is not None
        assert parsed.facts.euclidean == "yes"
        assert parsed.facts.hyperbolic_at(0.5) == "no"
        assert parsed.facts.provenance == "user_supplied"

    def test_override_warning(self):
        with pytest.warns(UserWarning):
            parse_config_text(
                "base.kind = ball\nbase.dims = 1\nbase.mu = 1\n"
                "base.einstein_constant = -1\n"
            )


@pytest.fixture()
def disc_config(tmp_path):
    path = tmp_path / "disc.cfg"
    path.write_text(DISC_CONFIG, encoding="utf-8")
    return path


@pytest.fixture()
def fock_config(tmp_path):
    path = tmp_path / "fock.cfg"
    path.write_text(FOCK_CONFIG, encoding="utf-8")
    return path


class TestCli:
    def test_check_einstein_yes(self, disc_config, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["check-einstein", "--config", str(disc_config), "--out", str(out),
             "--samples", "12"]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["is_einstein"] is True
        assert payload["schema"] == "1"
        assert payload["residual"] < 1e-3

    def test_check_einstein_no(self, fock_config, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["check-einstein", "--config", str(fock_config), "--out", str(out),
             "--samples", "12"]
        )
        assert code == 2
        assert json.loads(out.read_text())["is_einstein"] is False

    def test_check_extremal_exit_codes(self, disc_config, fock_config, tmp_path):
        assert main(
            ["check-extremal", "--config", str(disc_config), "--samples", "12",
             "--out", str(tmp_path / "a.json")]
        ) == 0
        assert main(
            ["check-extremal", "--config", str(fock_config), "--samples", "12",
             "--out", str(tmp_path / "b.json")]
        ) == 2

    def test_immersion_not_exists(self, disc_config, tmp_path):
        out = tmp_path / "imm.json"
        code = main(
            ["immersion", "--config", str(disc_config), "--target", "CH",
             "--h", "1.5", "--out", str(out)]
        )
        assert code == 2
        payload = json.loads(out.read_text())
        verdict = payload["verdicts"][0]
        assert verdict["answer"] == "not_exists"
        assert "h > 1" in verdict["rule"]
        assert verdict["cross_check"]["agreement"] == "obstruction-found"

    @pytest.mark.parametrize("h", ["1.0000000000000009", "1.0000000000000002"])
    def test_immersion_scale_just_above_one_is_excluded(self, disc_config, tmp_path, h):
        out = tmp_path / "imm.json"
        code = main(
            ["immersion", "--config", str(disc_config), "--target", "CH",
             "--h", h, "--out", str(out)]
        )
        assert code == 2
        assert json.loads(out.read_text())["verdicts"][0]["answer"] == "not_exists"

    @pytest.mark.parametrize("truncation", ["2", "3", "4", "6"])
    def test_immersion_scale_just_above_one_at_low_truncation(
        self, disc_config, tmp_path, truncation
    ):
        out = tmp_path / "imm.json"
        code = main(
            ["immersion", "--config", str(disc_config), "--target", "CH",
             "--h", "1.0000000000000002", "--truncation", truncation, "--out", str(out)]
        )
        assert code == 2
        verdict = json.loads(out.read_text())["verdicts"][0]
        assert verdict["answer"] == "not_exists"
        assert verdict["cross_check"]["agreement"] == "obstruction-found"
        assert verdict["cross_check"]["all_psd"] is False
        assert verdict["cross_check"]["first_failure"][:2] == [2, 2]
        at_one = ["immersion", "--config", str(disc_config), "--target", "CH",
                  "--h", "1", "--truncation", truncation, "--out", str(out)]
        assert main(at_one) == 0
        assert json.loads(out.read_text())["verdicts"][0]["answer"] == "exists"

    def test_immersion_obstruction_payload_at_truncation_two(self, disc_config, tmp_path):
        out = tmp_path / "imm.json"
        code = main(
            ["immersion", "--config", str(disc_config), "--target", "CH",
             "--h", "1.5", "--truncation", "2", "--out", str(out)]
        )
        assert code == 2
        verdict = {
            "answer": "not_exists",
            "cross_check": {
                "agreement": "obstruction-found",
                "all_psd": False,
                "first_failure": [2, 2, -1.5],
                "rank_lower_bound": 2,
                "truncation": 2,
            },
            "h": 1.5,
            "provenance": "catalog",
            "rule": "hyperbolic-scale-bound: degree-2 fiber block negative for h > 1",
            "target": "CH_infinite",
        }
        spec = {
            "dims": [1], "einstein_constants": [-2.0], "fiber_dim": 1, "genus": [2.0],
            "kind": "ball", "mu": [1.0], "scale_h": 1.0, "shape": None,
        }
        expected = {"command": "immersion", "schema": "1", "spec": spec, "verdicts": [verdict]}
        assert out.read_text() == to_json(expected)

    def test_immersion_exact_product_at_the_bound(self, tmp_path):
        # h mu = 0.1 * 10 = 1 exactly: still an immersion into CH
        cfg = tmp_path / "disc10.cfg"
        cfg.write_text(DISC_CONFIG.replace("base.mu = 1", "base.mu = 10"))
        out = tmp_path / "imm.json"
        code = main(
            ["immersion", "--config", str(cfg), "--target", "CH", "--h", "0.1",
             "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["verdicts"][0]["answer"] == "exists"

    def test_immersion_exists(self, disc_config, tmp_path):
        code = main(
            ["immersion", "--config", str(disc_config), "--target", "CH",
             "--h", "1", "--out", str(tmp_path / "imm.json")]
        )
        assert code == 0

    def test_curvature_csv(self, disc_config, tmp_path):
        out = tmp_path / "rows.csv"
        code = main(
            ["curvature", "--config", str(disc_config), "--samples", "5",
             "--format", "csv", "--out", str(out)]
        )
        assert code == 0
        header = out.read_text().splitlines()[0]
        for col in ("z0_0_re", "det_closed", "det_direct", "s_trace",
                    "s_closed", "einstein_residual", "extremal_residual"):
            assert col in header

    def test_curvature_seed_determinism(self, disc_config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            main(["curvature", "--config", str(disc_config), "--samples", "5",
                  "--format", "csv", "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_diastasis_json(self, disc_config, tmp_path):
        out = tmp_path / "dia.json"
        code = main(
            ["diastasis", "--config", str(disc_config), "--h", "0.5,1,1.5",
             "--truncation", "6", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["verdicts"]) == 9  # 3 forms x 3 scales
        hyp = [
            v for v in payload["verdicts"]
            if v["form"] == "hyperbolic" and v["h"] == 1.5
        ]
        assert hyp[0]["first_failure"] == {"i": 2, "sigma": 2, "min_eig": -1.5}

    def test_diastasis_block_dump(self, disc_config, tmp_path):
        outdir = tmp_path / "blocks"
        code = main(
            ["diastasis", "--config", str(disc_config), "--h", "1.5",
             "--truncation", "3", "--format", "csv", "--out", str(outdir)]
        )
        assert code == 0
        assert (outdir / "hyperbolic_i2_sigma2.csv").exists()
        assert (outdir / "verdicts.json").exists()

    def test_report_runs(self, fock_config, tmp_path):
        out = tmp_path / "full.json"
        code = main(
            ["report", "--config", str(fock_config), "--samples", "10",
             "--h", "0.5,1", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["curvature"]["is_einstein"] is False
        assert len(payload["immersion"]) == 12  # 6 targets x 2 scales

    @pytest.mark.parametrize("args", [["--h", "nan"], ["--h", "inf"], ["--h=-inf"]])
    def test_diastasis_out_of_range_fails_cleanly(self, disc_config, capsys, args):
        code = main(["diastasis", "--config", str(disc_config), *args])
        out, err = capsys.readouterr()
        assert code == 1
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "NaN" not in out + err and "Infinity" not in out + err

    def test_diastasis_decides_first_failure_past_the_double_range(self, disc_config, capsys):
        # at h = 1e300 the first failing block, hyperbolic (2, 2), holds
        # -h (h - 1): its sign and place are exact, its min_eig overflows
        code = main(["diastasis", "--config", str(disc_config), "--h", "1e300"])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        assert "NaN" not in out and "Infinity" not in out
        verdicts = {v["form"]: v for v in json.loads(out)["verdicts"]}
        hyperbolic = verdicts["hyperbolic"]
        assert hyperbolic["all_psd"] is False
        assert hyperbolic["first_failure"] == {"i": 2, "sigma": 2, "min_eig": None}
        assert verdicts["euclidean"]["all_psd"] and verdicts["projective"]["all_psd"]

    def test_diastasis_past_the_double_range(self, disc_config, tmp_path):
        # entries pass 1e308 near degree 100, but the sweep only counts signs
        out = tmp_path / "v.json"
        code = main(["diastasis", "--config", str(disc_config), "--truncation", "200",
                     "--out", str(out)])
        assert code == 0
        verdicts = json.loads(out.read_text())["verdicts"]
        assert [v["all_psd"] for v in verdicts] == [True] * 3
        assert verdicts[0]["rank_lower_bound"] == math.comb(202, 2) - 1

    def test_wide_fiber_fails_cleanly(self, tmp_path, capsys):
        # the sweep only counts the 720,600 fiber indices of degree 2; the
        # CSV dump enumerates them, past the index limit
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(DISC_CONFIG.replace("fiber.dim = 1", "fiber.dim = 1200"))
        sweep = ["diastasis", "--config", str(cfg), "--truncation", "2"]
        assert main(sweep + ["--out", str(tmp_path / "v.json")]) == 0
        code = main(sweep + ["--format", "csv", "--out", str(tmp_path / "dump")])
        out, err = capsys.readouterr()
        assert code == 1
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "multi-indices" in err and "Traceback" not in out + err

    def test_csv_dump_onto_an_existing_file_fails_cleanly(self, disc_config, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        code = main(
            ["diastasis", "--config", str(disc_config), "--truncation", "2",
             "--format", "csv", "--out", str(taken)]
        )
        out, err = capsys.readouterr()
        assert code == 1
        assert err.startswith("error: cannot write output: ") and len(err.splitlines()) == 1
        assert "Traceback" not in out + err
        assert taken.read_text() == "not a directory\n"

    def test_output_into_a_missing_directory_fails_cleanly(self, disc_config, tmp_path, capsys):
        out_path = tmp_path / "missing" / "x.json"
        code = main(
            ["curvature", "--config", str(disc_config), "--samples", "2", "--out", str(out_path)]
        )
        out, err = capsys.readouterr()
        assert code == 1
        assert err.startswith("error: cannot write output: ") and len(err.splitlines()) == 1
        assert "Traceback" not in out + err and not out_path.parent.exists()

    def test_fixtures_prints_elapsed_on_stderr(self, monkeypatch, tmp_path, capsys):
        criteria = tuple(
            CriterionResult(cid, f"check {cid}", True, {}, 0.25 * cid) for cid in (1, 2)
        )
        summary = AcceptanceSummary(criteria, {}, True, 0.75, 42)
        monkeypatch.setattr(cli, "run_acceptance", lambda seed: summary)
        out = tmp_path / "fixtures.json"
        assert main(["fixtures", "--out", str(out)]) == 0
        stdout, stderr = capsys.readouterr()
        assert stdout.splitlines() == [c.line() for c in criteria]
        assert "criterion 01 elapsed 0.250 s" in stderr.splitlines()
        assert "criterion 02 elapsed 0.500 s" in stderr.splitlines()
        assert out.read_text() == to_json(summary.payload())

    def test_sampling_budget_fails_cleanly(self, tmp_path, capsys):
        cfg = tmp_path / "steep.cfg"
        cfg.write_text(DISC_CONFIG.replace("base.mu = 1", "base.mu = 1000000"))
        code = main(["check-einstein", "--config", str(cfg)])
        out, err = capsys.readouterr()
        assert code == 1
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "draw budget" in err and "Traceback" not in out + err

    def test_immersion_nan_scale_is_an_error(self, disc_config, capsys):
        code = main(["immersion", "--config", str(disc_config), "--h", "nan"])
        assert code == 1
        assert "positive and finite" in capsys.readouterr().err

    def test_checks_on_a_tau_zero_base_that_is_not_einstein(self, tmp_path):
        cfg = tmp_path / "poly.cfg"
        cfg.write_text(POLYDISC_HALF_CONFIG, encoding="utf-8")
        common = ["--config", str(cfg), "--samples", "10"]
        out = tmp_path / "out.json"
        assert main(["check-einstein", *common, "--out", str(out)]) == 2
        assert json.loads(out.read_text())["is_einstein"] is False
        assert main(["check-extremal", *common, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["is_extremal"] is True
        assert main(["report", *common, "--truncation", "4", "--out", str(out)]) == 0
        curvature = json.loads(out.read_text())["curvature"]
        assert curvature["is_constant_scalar"] is True
        assert curvature["is_einstein"] is False

    def test_config_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(
            "base.kind = ball\nbase.dims = 1\nbase.mu = oops\n", encoding="utf-8"
        )
        code = main(["check-einstein", "--config", str(bad)])
        assert code == 1
        assert "line 3" in capsys.readouterr().err

    def test_capability_error_exit(self, tmp_path, capsys):
        cfg = tmp_path / "cartan.cfg"
        cfg.write_text(
            "base.kind = cartan_type_I\nbase.dims = 2,2\nbase.mu = 1\n",
            encoding="utf-8",
        )
        code = main(["diastasis", "--config", str(cfg)])
        assert code == 1
        assert "unsupported" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["curvature", "--config", "disc.cfg", "--samples", "abc"],
            ["nonsense"],
            ["check-einstein"],
        ],
    )
    def test_usage_error_exits_one(self, argv, capsys):
        # exit 2 would read as "the answer is no"
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage: hartogs" in capsys.readouterr().out

    def test_parser_is_built_once(self, monkeypatch, disc_config, tmp_path):
        built = []
        build = cli.build_parser

        def counted():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        try:
            for _ in range(2):
                assert main(["diastasis", "--config", str(disc_config), "--truncation", "2",
                             "--out", str(tmp_path / "d.json")]) == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) <= 1


_NEVER_RAISE_CONFIGS = [
    DISC_CONFIG,
    POLYDISC_HALF_CONFIG,
    DISC_CONFIG.replace("base.mu = 1", "base.mu = nan"),
    DISC_CONFIG.replace("scale.h = 1", "scale.h = inf"),
    POLYDISC_HALF_CONFIG.replace("1/2,1", "1/2,-inf"),
]


@settings(max_examples=40, deadline=None)
@given(
    command=st.sampled_from(["diastasis", "immersion", "check-einstein"]),
    config=st.sampled_from(_NEVER_RAISE_CONFIGS),
    h=st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 1e308]),
    ),
    truncation=st.integers(min_value=2, max_value=250),
    samples=st.integers(min_value=1, max_value=12),
)
def test_cli_never_raises(command, config, h, truncation, samples):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "domain.cfg"
        cfg.write_text(config, encoding="utf-8")
        out = Path(tmp) / "out.json"
        code = main(
            [command, "--config", str(cfg), f"--h={h!r}",
             "--truncation", str(truncation), "--samples", str(samples),
             "--out", str(out)]
        )
        assert code in (0, 1, 2)
        if out.exists():
            text = out.read_text()
            assert "NaN" not in text and "Infinity" not in text
