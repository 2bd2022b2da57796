import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urpayload.cli import (
    EXIT_BAD_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    _METHOD_ALIASES,
    main,
)
from urpayload.names import Scheme, Semantics

FIG2_FLAGS = ["--beta", "0.306102", "--eta", "10", "--M", "2", "--n", "200"]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def topology_file(tmp_path):
    path = tmp_path / "fig2.json"
    path.write_text(
        json.dumps(
            {"r0": 20, "alpha": 3.5, "interferers": [10 + 20 * j for j in range(1, 11)]}
        )
    )
    return str(path)


# `urp rate --json` stdout and exit code per (source, scheme, M, eps), recorded
# while solver results were frozen dataclasses; "pair" is --beta 0.8 --eta 8
# and "B" the topology-B file
_RATE_JSON = {
    ("pair", "sc", "1", "1e-3"): (
        2,
        '{"results": [{"method": "sc_exact", "k_star": 0, "k_real": 0.3606512964324793, '
        '"rate": 0.0, "theta": 0.0, "predicted_epsilon": 0.0, "infeasible": true}, '
        '{"method": "sc_approx", "k_star": 0, "k_real": 0.3606512960725928, '
        '"rate": 0.0, "theta": 0.0, "predicted_epsilon": 0.0, "infeasible": true}, '
        '{"method": "fb", "k_star": 0, "k_real": 0.0, '
        '"rate": 0.0, "theta": 0.0, "predicted_epsilon": 0.0, "infeasible": true}]}'
    ),
    ("pair", "sc", "1", "1e-9"): (
        2,
        '{"results": [{"method": "sc_exact", "k_star": 0, "k_real": 3.6052369978278875e-07, '
        '"rate": 0.0, "theta": 0.0, "predicted_epsilon": 0.0, "infeasible": true}, '
        '{"method": "sc_approx", "k_star": 0, "k_real": 3.606737601996988e-07, '
        '"rate": 0.0, "theta": 0.0, "predicted_epsilon": 0.0, "infeasible": true}, '
        '{"method": "fb", "k_star": 0, "k_real": 0.0, '
        '"rate": 0.0, "theta": 0.0, "predicted_epsilon": 0.0, "infeasible": true}]}'
    ),
    ("pair", "sc", "4", "1e-3"): (
        0,
        '{"results": [{"method": "sc_exact", "k_star": 63, "k_real": 63.87199480632262, '
        '"rate": 0.315, "theta": 0.24401165329846886, "predicted_epsilon": 0.0009466525029922713, "infeasible": false}, '
        '{"method": "sc_approx", "k_star": 63, "k_real": 63.87199480596889, '
        '"rate": 0.315, "theta": 0.24401165329846886, "predicted_epsilon": 0.0009466525029922713, "infeasible": false}, '
        '{"method": "fb", "k_star": 59, "k_real": 59.46874317480251, '
        '"rate": 0.295, "theta": 0.226884977253804, "predicted_epsilon": 0.0009716568094967496, "infeasible": false}]}'
    ),
    ("pair", "sc", "4", "1e-9"): (
        2,
        '{"results": [{"method": "sc_exact", "k_star": 2, "k_real": 2.027518624163349, '
        '"rate": 0.01, "theta": 0.006955550056718809, "predicted_epsilon": 9.46787688172657e-10, "infeasible": false}, '
        '{"method": "sc_approx", "k_star": 2, "k_real": 2.027518624264887, '
        '"rate": 0.01, "theta": 0.006955550056718809, "predicted_epsilon": 9.46787688172657e-10, "infeasible": false}, '
        '{"method": "fb", "k_star": 0, "k_real": 0.0, '
        '"rate": 0.0, "theta": 0.0, "predicted_epsilon": 0.0, "infeasible": true}]}'
    ),
    ("pair", "mrc", "1", "1e-3"): (
        2,
        '{"results": [{"method": "mrc_numeric", "k_star": 0, "k_real": 0.3606512960726805, '
        '"rate": 0.0, "theta": 0.0, "predicted_epsilon": 0.0, "infeasible": true}, '
        '{"method": "mrc_closed", "k_star": 0, "k_real": 0.3606287586458519, '
        '"rate": 0.0, "theta": 0.0, "predicted_epsilon": 0.0, "infeasible": true}, '
        '{"method": "fb", "k_star": 0, "k_real": 0.0, '
        '"rate": 0.0, "theta": 0.0, "predicted_epsilon": 0.0, "infeasible": true}]}'
    ),
    ("pair", "mrc", "1", "1e-9"): (
        2,
        '{"results": [{"method": "mrc_numeric", "k_star": 0, "k_real": 3.606737898391004e-07, '
        '"rate": 0.0, "theta": 0.0, "predicted_epsilon": 0.0, "infeasible": true}, '
        '{"method": "mrc_closed", "k_star": 0, "k_real": 3.6067376017715667e-07, '
        '"rate": 0.0, "theta": 0.0, "predicted_epsilon": 0.0, "infeasible": true}, '
        '{"method": "fb", "k_star": 0, "k_real": 0.0, '
        '"rate": 0.0, "theta": 0.0, "predicted_epsilon": 0.0, "infeasible": true}]}'
    ),
    ("pair", "mrc", "4", "1e-3"): (
        0,
        '{"results": [{"method": "mrc_numeric", "k_star": 124, "k_real": 124.45369369498881, '
        '"rate": 0.62, "theta": 0.5368751812880124, "predicted_epsilon": 0.0009837789744497236, "infeasible": false}, '
        '{"method": "mrc_closed", "k_star": 124, "k_real": 124.91119797752252, '
        '"rate": 0.62, "theta": 0.5368751812880124, "predicted_epsilon": 0.0009837789744497236, "infeasible": false}, '
        '{"method": "fb", "k_star": 120, "k_real": 120.40987277543172, '
        '"rate": 0.6, "theta": 0.5157165665103981, "predicted_epsilon": 0.0009855072439276251, "infeasible": false}]}'
    ),
    ("pair", "mrc", "4", "1e-9"): (
        2,
        '{"results": [{"method": "mrc_numeric", "k_star": 4, "k_real": 4.4665261327841455, '
        '"rate": 0.02, "theta": 0.01395947979002914, "predicted_epsilon": 6.418653689375916e-10, "infeasible": false}, '
        '{"method": "mrc_closed", "k_star": 4, "k_real": 4.467094875771347, '
        '"rate": 0.02, "theta": 0.01395947979002914, "predicted_epsilon": 6.418653689375916e-10, "infeasible": false}, '
        '{"method": "fb", "k_star": 0, "k_real": 0.0, '
        '"rate": 0.0, "theta": 0.0, "predicted_epsilon": 0.0, "infeasible": true}]}'
    ),
    ("B", "sc", "1", "1e-3"): (
        2,
        '{"results": [{"method": "sc_exact", "k_star": 0, "k_real": 0.9418591154826572, '
        '"rate": 0.0, "theta": 0.0, "predicted_epsilon": 0.0, "infeasible": true}, '
        '{"method": "sc_approx", "k_star": 0, "k_real": 0.9416031828442903, '
        '"rate": 0.0, "theta": 0.0, "predicted_epsilon": 0.0, "infeasible": true}, '
        '{"method": "fb", "k_star": 0, "k_real": 0.0, '
        '"rate": 0.0, "theta": 0.0, "predicted_epsilon": 0.0, "infeasible": true}]}'
    ),
    ("B", "sc", "1", "1e-9"): (
        2,
        '{"results": [{"method": "sc_exact", "k_star": 0, "k_real": 9.426003089174628e-07, '
        '"rate": 0.0, "theta": 0.0, "predicted_epsilon": 0.0, "infeasible": true}, '
        '{"method": "sc_approx", "k_star": 0, "k_real": 9.426224383238716e-07, '
        '"rate": 0.0, "theta": 0.0, "predicted_epsilon": 0.0, "infeasible": true}, '
        '{"method": "fb", "k_star": 0, "k_real": 0.0, '
        '"rate": 0.0, "theta": 0.0, "predicted_epsilon": 0.0, "infeasible": true}]}'
    ),
    ("B", "sc", "4", "1e-3"): (
        0,
        '{"results": [{"method": "sc_exact", "k_star": 149, "k_real": 149.87084653221245, '
        '"rate": 0.745, "theta": 0.675974269335897, "predicted_epsilon": 0.0009748545646062818, "infeasible": false}, '
        '{"method": "sc_approx", "k_star": 143, "k_real": 143.78885322381853, '
        '"rate": 0.715, "theta": 0.6414832176209967, "predicted_epsilon": 0.0009752678414059923, "infeasible": false}, '
        '{"method": "fb", "k_star": 139, "k_real": 139.93852218380198, '
        '"rate": 0.695, "theta": 0.6188844330948169, "predicted_epsilon": 0.000970944964773195, "infeasible": false}]}'
    ),
    ("B", "sc", "4", "1e-9"): (
        2,
        '{"results": [{"method": "sc_exact", "k_star": 5, "k_real": 5.276830940056243, '
        '"rate": 0.025, "theta": 0.017479692102686392, "predicted_epsilon": 8.053350951876439e-10, "infeasible": false}, '
        '{"method": "sc_approx", "k_star": 5, "k_real": 5.268815635608512, '
        '"rate": 0.025, "theta": 0.017479692102686392, "predicted_epsilon": 8.100155894548138e-10, "infeasible": false}, '
        '{"method": "fb", "k_star": 0, "k_real": 0.0, '
        '"rate": 0.0, "theta": 0.0, "predicted_epsilon": 0.0, "infeasible": true}]}'
    ),
    ("B", "mrc", "1", "1e-3"): (
        2,
        '{"results": [{"method": "mrc_numeric", "k_star": 0, "k_real": 0.9416031828408958, '
        '"rate": 0.0, "theta": 0.0, "predicted_epsilon": 0.0, "infeasible": true}, '
        '{"method": "mrc_closed", "k_star": 0, "k_real": 0.9415561566840751, '
        '"rate": 0.0, "theta": 0.0, "predicted_epsilon": 0.0, "infeasible": true}, '
        '{"method": "fb", "k_star": 0, "k_real": 0.0, '
        '"rate": 0.0, "theta": 0.0, "predicted_epsilon": 0.0, "infeasible": true}]}'
    ),
    ("B", "mrc", "1", "1e-9"): (
        2,
        '{"results": [{"method": "mrc_numeric", "k_star": 0, "k_real": 9.4261832971383e-07, '
        '"rate": 0.0, "theta": 0.0, "predicted_epsilon": 0.0, "infeasible": true}, '
        '{"method": "mrc_closed", "k_star": 0, "k_real": 9.426224382767404e-07, '
        '"rate": 0.0, "theta": 0.0, "predicted_epsilon": 0.0, "infeasible": true}, '
        '{"method": "fb", "k_star": 0, "k_real": 0.0, '
        '"rate": 0.0, "theta": 0.0, "predicted_epsilon": 0.0, "infeasible": true}]}'
    ),
    ("B", "mrc", "4", "1e-3"): (
        0,
        '{"results": [{"method": "mrc_numeric", "k_star": 253, "k_real": 253.51389207527146, '
        '"rate": 1.265, "theta": 1.4032720990537013, "predicted_epsilon": 0.0009889559270787331, "infeasible": false}, '
        '{"method": "mrc_closed", "k_star": 253, "k_real": 254.5037959375989, '
        '"rate": 1.265, "theta": 1.4032720990537013, "predicted_epsilon": 0.0009889559270787331, "infeasible": false}, '
        '{"method": "fb", "k_star": 250, "k_real": 250.07505022967234, '
        '"rate": 1.25, "theta": 1.3784142300054418, "predicted_epsilon": 0.0009983905271110209, "infeasible": false}]}'
    ),
    ("B", "mrc", "4", "1e-9"): (
        0,
        '{"results": [{"method": "mrc_numeric", "k_star": 11, "k_real": 11.53016944561246, '
        '"rate": 0.055, "theta": 0.03885910329766432, "predicted_epsilon": 8.257286857219508e-10, "infeasible": false}, '
        '{"method": "mrc_closed", "k_star": 11, "k_real": 11.532060671918403, '
        '"rate": 0.055, "theta": 0.03885910329766432, "predicted_epsilon": 8.257286857219508e-10, "infeasible": false}, '
        '{"method": "fb", "k_star": 4, "k_real": 4.972059348132461, '
        '"rate": 0.02, "theta": 0.01395947979002914, "predicted_epsilon": 7.294346086605041e-10, "infeasible": false}]}'
    ),
}


@pytest.mark.parametrize("source, scheme, antennas, eps", list(_RATE_JSON))
def test_rate_json_is_pinned(source, scheme, antennas, eps, topology_file, capsys):
    flags = ["--topology", topology_file] if source == "B" else ["--beta", "0.8", "--eta", "8"]
    methods = "exact,approx,fb" if scheme == "sc" else "numeric,closed,fb"
    argv = ["rate", *flags, "--M", antennas, "--eps", eps, "--scheme", scheme]
    code, out, _ = run_cli([*argv, "--method", methods, "--json"], capsys)
    exit_code, line = _RATE_JSON[source, scheme, antennas, eps]
    assert (code, out) == (exit_code, line + "\n")


class TestRate:
    def test_asymptotic_headline(self, capsys):
        code, out, _ = run_cli(
            ["rate", *FIG2_FLAGS, "--eps", "7e-5", "--scheme", "sc", "--method", "approx"],
            capsys,
        )
        assert code == EXIT_OK
        k_star = int(out.split("k_star=")[1].split()[0])
        assert abs(k_star - 8) <= 1

    def test_finite_blocklength_headline(self, capsys):
        code, out, _ = run_cli(
            ["rate", *FIG2_FLAGS, "--eps", "7e-5", "--scheme", "sc", "--method", "fb"],
            capsys,
        )
        assert code == EXIT_OK
        k_star = int(out.split("k_star=")[1].split()[0])
        assert abs(k_star - 4) <= 1

    def test_predicted_epsilon_prints_every_digit(self, capsys):
        # 0.9999999999979963 meets the target; six significant digits would
        # round it to 1, above the target
        eps = 0.999999999998
        code, out, _ = run_cli(
            [
                "rate", "--beta", "0.8", "--eta", "1", "--M", "1", "--n", "200",
                "--eps", repr(eps), "--scheme", "mrc", "--method", "fb",
            ],
            capsys,
        )
        assert code == EXIT_OK
        printed = float(out.split("predicted_epsilon=")[1].split()[0])
        assert printed <= eps

    def test_deep_target_digits(self, capsys):
        # an average of about 1e-40 is below the floor where the FB window
        # may stop at its tight edge, so it is summed up to z = 40
        code, out, _ = run_cli(
            [
                "rate", "--beta", "0.001", "--eta", "8", "--M", "16", "--n", "200",
                "--eps", "1e-40", "--scheme", "mrc", "--method", "fb",
            ],
            capsys,
        )
        assert code == EXIT_OK
        assert "k_star=886 " in out
        assert out.rstrip().endswith("predicted_epsilon=9.542305642705016e-41")

    def test_exact_matches_approx_within_one_bit(self, topology_file, capsys):
        # a single antenna cannot reach 1e-4 on this topology, so both
        # methods must agree on infeasibility (and the exit code says so)
        code, out, _ = run_cli(
            [
                "rate",
                "--topology",
                topology_file,
                "--M",
                "1",
                "--n",
                "200",
                "--eps",
                "1e-4",
                "--scheme",
                "sc",
                "--method",
                "exact,approx",
                "--json",
            ],
            capsys,
        )
        assert code in (EXIT_OK, EXIT_INFEASIBLE)
        results = json.loads(out)["results"]
        by_method = {r["method"]: r for r in results}
        assert abs(by_method["sc_exact"]["k_star"] - by_method["sc_approx"]["k_star"]) <= 1
        assert by_method["sc_exact"]["k_real"] == pytest.approx(
            by_method["sc_approx"]["k_real"], abs=0.01
        )

    def test_infeasible_exits_two(self, capsys):
        code, out, _ = run_cli(
            [
                "rate",
                "--beta",
                "50.0",
                "--eta",
                "2",
                "--M",
                "1",
                "--n",
                "200",
                "--eps",
                "1e-9",
                "--scheme",
                "sc",
                "--method",
                "approx",
            ],
            capsys,
        )
        assert code == EXIT_INFEASIBLE
        assert "k_star=0" in out and "INFEASIBLE" in out

    def test_missing_eps_is_config_error(self, capsys):
        code, _, err = run_cli(["rate", *FIG2_FLAGS, "--method", "approx"], capsys)
        assert code == EXIT_BAD_CONFIG
        assert "eps" in err

    def test_both_sources_rejected(self, topology_file, capsys):
        code, _, err = run_cli(
            ["rate", "--topology", topology_file, *FIG2_FLAGS, "--eps", "1e-4"], capsys
        )
        assert code == EXIT_BAD_CONFIG

    def test_exact_mrc_unavailable(self, capsys):
        code, _, err = run_cli(
            ["rate", *FIG2_FLAGS, "--eps", "1e-4", "--scheme", "mrc", "--method", "exact"],
            capsys,
        )
        assert code == EXIT_BAD_CONFIG
        assert "exact" in err

    def test_infinite_beta_is_config_error(self, capsys):
        code, _, err = run_cli(
            ["rate", "--beta", "inf", "--eta", "10", "--eps", "1e-3", "--method", "approx"],
            capsys,
        )
        assert code == EXIT_BAD_CONFIG
        assert "finite" in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["rate", "--beta", "5e-324"], "underflows to 0 at beta=5e-324, eta=8"),
            (
                ["sweep", "--axis", "beta", "--values", "1e-323,0.5"],
                "underflows to 0 at beta=1e-323, eta=8",
            ),
            # beta/8 rounds up to 5e-324, and the eight weights sum to 4e-323
            (
                ["rate", "--beta", "5e-323"],
                "rounds so the weights do not sum to beta at beta=5e-323, eta=8",
            ),
            (
                ["sweep", "--axis", "beta", "--values", "5e-323,0.5"],
                "rounds so the weights do not sum to beta at beta=5e-323, eta=8",
            ),
        ],
        ids=["rate", "sweep", "rate-rounded", "sweep-rounded"],
    )
    def test_underflowing_weight_names_beta_and_eta(self, argv, message, capsys):
        # beta/8 rounds to 0, or so far that the weights miss beta: the error
        # names the two flags given, not the path losses built from them
        code, out, err = run_cli([*argv, "--eta", "8", "--eps", "1e-3"], capsys)
        assert code == EXIT_BAD_CONFIG
        assert out == ""
        assert f"beta/eta {message}" in err
        assert "path losses" not in err

    def test_overflowing_topology_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "far.json"
        path.write_text('{"r0": 1e400, "alpha": 3.5, "interferers": [30, 50]}')
        code, _, err = run_cli(["rate", "--topology", str(path), "--eps", "1e-3"], capsys)
        assert code == EXIT_BAD_CONFIG
        assert "finite" in err

    def test_finite_overflowing_topology_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "far.json"
        path.write_text('{"r0": 1e200, "alpha": 3.5, "interferers": [30, 50]}')
        code, out, err = run_cli(["rate", "--topology", str(path), "--eps", "1e-3"], capsys)
        assert code == EXIT_BAD_CONFIG
        assert out == ""
        assert "overflow" in err

    @pytest.mark.parametrize(
        "doc,field",
        [
            # was a TypeError traceback: 'int' object is not iterable (exit 1)
            ('{"r0": 20, "alpha": 3.5, "interferers": 5}', "interferers"),
            ('{"r0": 20, "alpha": 3.5, "interferers": [30, null]}', "interferers"),
            ('{"r0": "20", "alpha": 3.5, "interferers": [30]}', "r0"),
            # was an OverflowError traceback from float() of a JSON integer
            ('{"r0": 1' + "0" * 400 + ', "alpha": 3.5, "interferers": [30]}', "r0"),
            ('{"path_losses": 5}', "path_losses"),
            ('{"path_losses": {"l0": 1e4, "lj": 5}}', "lj"),
            ('{"path_losses": {"l0": true, "lj": [1e-5]}}', "l0"),
            ("[20, 3.5]", "topology"),
        ],
        ids=[
            "interferers-int",
            "interferers-null-item",
            "r0-string",
            "r0-huge-integer",
            "path_losses-int",
            "lj-int",
            "l0-bool",
            "document-list",
        ],
    )
    def test_topology_field_of_wrong_type_is_config_error(self, doc, field, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text(doc)
        code, out, err = run_cli(
            ["rate", "--topology", str(path), "--M", "1", "--eps", "1e-3"], capsys
        )
        assert code == EXIT_BAD_CONFIG
        assert out == ""
        assert field in err

    def test_repeated_mass_failure_is_config_error(self, capsys):
        # the second solve takes the law from the per-law cache and is
        # refused just the same
        argv = ["rate", "--beta", "1e-300", "--eta", "10", "--eps", "0.5", "--method", "fb"]
        for _ in range(3):
            code, out, err = run_cli(argv, capsys)
            assert code == EXIT_BAD_CONFIG
            assert out == ""
            assert "mass" in err

    def test_density_outside_the_grid_is_config_error(self, capsys):
        # beta=1e-300 puts the SIR mass far above any finite integration range
        code, out, err = run_cli(
            ["rate", "--beta", "1e-300", "--eta", "10", "--eps", "0.5", "--method", "fb"],
            capsys,
        )
        assert code == EXIT_BAD_CONFIG
        assert out == ""
        assert "mass" in err

    @pytest.mark.parametrize(
        "flags", [["--method", "approx"], ["--scheme", "mrc", "--M", "2", "--method", "numeric"]]
    )
    def test_payload_formula_overflow_is_config_error(self, flags, capsys):
        # beta=1e-308 makes eta/beta, and with it the asymptotic payload, infinite
        code, out, err = run_cli(
            ["rate", "--beta", "1e-308", "--eta", "10", "--eps", "0.5", *flags], capsys
        )
        assert code == EXIT_BAD_CONFIG
        assert out == ""
        assert "not finite" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--method", "exact"],
            ["--method", "approx"],
            ["--method", "fb"],
            ["--scheme", "mrc", "--method", "closed"],
        ],
    )
    def test_target_too_close_to_one_names_its_cause(self, flags, capsys):
        # eps^(1/16) rounds to 1.0, where -log(1 - eps^(1/M)) is infinite
        code, out, err = run_cli(
            [
                "rate",
                *["--beta", "0.3", "--eta", "10", "--M", "16", "--n", "200"],
                *["--eps", "0.9999999999999999", *flags],
            ],
            capsys,
        )
        assert code == EXIT_BAD_CONFIG
        assert out == ""
        assert "epsilon_th=0.9999999999999999" in err and "M=16" in err
        assert "math domain error" not in err

    @pytest.mark.parametrize("scheme", ["sc", "mrc"])
    def test_target_above_the_saturated_fb_error_is_config_error(self, scheme, capsys):
        # with eta=1 the FB average saturates at 0.99999999999875, so no
        # payload violates this target, and the walk would gallop until k/n
        # overflows
        code, out, err = run_cli(
            [
                "rate",
                *["--beta", "0.8", "--eta", "1", "--M", "1", "--n", "200"],
                *["--eps", "0.9999999999999999", "--scheme", scheme, "--method", "fb"],
            ],
            capsys,
        )
        assert code == EXIT_BAD_CONFIG
        assert out == ""
        assert "epsilon_th=0.9999999999999999" in err
        assert "saturated finite-blocklength error 0.99999999999875" in err
        assert "Traceback" not in err and "Overflow" not in err

    @pytest.mark.parametrize("flags", [[], ["--scheme", "mrc", "--M", "2"]])
    def test_density_overflow_is_quiet_config_error(self, flags, capsys):
        # beta=1e300 overflows x*beta on the grid; the density is 0 there, so
        # the mass check rejects the law without a numpy warning or a nan
        code, out, err = run_cli(
            ["rate", "--beta", "1e300", "--eta", "10", "--eps", "0.5", "--method", "fb", *flags],
            capsys,
        )
        assert code == EXIT_BAD_CONFIG
        assert out == ""
        assert "Warning" not in err
        assert "mass 0 " in err

    def test_env_var_supplies_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("URP_EPS", "7e-5")
        code, out, _ = run_cli(
            ["rate", *FIG2_FLAGS, "--scheme", "sc", "--method", "approx"], capsys
        )
        assert code == EXIT_OK
        assert "k_star=" in out

    def test_env_vars_preset_typed_and_choice_flags(self, capsys, monkeypatch):
        monkeypatch.setenv("URP_SCHEME", "mrc")
        monkeypatch.setenv("URP_M", "2")
        monkeypatch.setenv("URP_METHOD", "closed")
        code, out, _ = run_cli(["rate", *FIG2_FLAGS[:4], "--eps", "1e-3"], capsys)
        assert code == EXIT_OK
        assert out.startswith("method=mrc_closed ")

    @pytest.mark.parametrize(
        "variable,raw,argv",
        [
            ("URP_TRIALS", "bad", ["rate", *FIG2_FLAGS, "--eps", "1e-3"]),
            ("URP_SEED", "x", ["sweep", "--preset", "fig2pp"]),
        ],
        ids=["rate-trials", "sweep-seed"],
    )
    def test_env_preset_of_another_subcommand_is_not_read(
        self, variable, raw, argv, capsys, monkeypatch
    ):
        # was exit 64: every subcommand's presets were cast while the parser was built
        monkeypatch.setenv(variable, raw)
        code, _, err = run_cli(argv, capsys)
        assert code == EXIT_OK, err

    def test_env_preset_outside_choices_is_usage_error(self, capsys, monkeypatch):
        # was exit 65 from Scheme("zzz"): argparse checks no choices on a default
        monkeypatch.setenv("URP_SCHEME", "zzz")
        with pytest.raises(SystemExit) as excinfo:
            main(["rate", "--beta", "0.8", "--eta", "8", "--eps", "1e-3"])
        assert excinfo.value.code == EXIT_USAGE
        assert "URP_SCHEME" in capsys.readouterr().err

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("URP_EPS", "0.5")
        code, out, _ = run_cli(
            [
                "rate",
                *FIG2_FLAGS,
                "--eps",
                "7e-5",
                "--scheme",
                "sc",
                "--method",
                "fb",
            ],
            capsys,
        )
        assert code == EXIT_OK
        k_star = int(out.split("k_star=")[1].split()[0])
        assert abs(k_star - 4) <= 1


HUGE_N = "1000000000000000000000000000000"


def run_cli_in_subprocess(argv, source=("--beta", "0.8", "--eta", "8"), env=None):
    # for inputs that hung or crashed before they were capped: in a process
    # of its own with a timeout, a regression fails instead of hanging
    env = {**os.environ, **(env or {})}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "urpayload.cli", *argv, *source],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


class TestBlocklengthCap:
    @pytest.mark.parametrize(
        "argv",
        [
            ["rate", "--eps", "1e-3", "--n", HUGE_N, "--method", "approx"],
            ["rate", "--eps", "1e-3", "--n", HUGE_N, "--method", "fb"],
            ["sweep", "--axis", "n", "--values", "100,1e30", "--methods", "approx"],
        ],
    )
    def test_huge_blocklength_is_config_error(self, argv):
        result = run_cli_in_subprocess(argv)
        assert result.returncode == EXIT_BAD_CONFIG, result.stderr
        assert "blocklength must be at most" in result.stderr


class TestDeeplyNestedJson:
    @pytest.mark.parametrize(
        "argv", [["rate", "--eps", "1e-3", "--topology"], ["simulate", "--spec"]]
    )
    def test_is_config_error(self, argv, tmp_path):
        # json.loads raised RecursionError here: a traceback and exit 1
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        result = run_cli_in_subprocess([*argv, str(path)], source=())
        assert result.returncode == EXIT_BAD_CONFIG, result.stderr
        assert "Traceback" not in result.stderr
        assert "nested too deeply" in result.stderr


class TestInterfererCap:
    @pytest.mark.parametrize("argv", [["rate", "--eps", "1e-3"], ["simulate", "--k", "5"]])
    def test_huge_eta_is_config_error(self, argv):
        # (beta / eta,) * eta raised OverflowError: a traceback and exit 1
        result = run_cli_in_subprocess(
            argv, source=("--beta", "0.8", "--eta", "100000000000000000000")
        )
        assert result.returncode == EXIT_BAD_CONFIG, result.stderr
        assert "Traceback" not in result.stderr
        assert "eta must be at most" in result.stderr


class TestSimulatedAntennaCap:
    def test_huge_antenna_count_is_config_error(self):
        # filled a 10 x 10**8 serving-gain array before the cap
        result = run_cli_in_subprocess(["simulate", "--M", "100000000", "--trials", "10"])
        assert result.returncode == EXIT_BAD_CONFIG, result.stderr
        assert "antennas must be at most 256" in result.stderr


SPEC_DOC = {
    "topology": {"r0": 20, "alpha": 3.5, "interferers": [30, 70]},
    "antennas": 1,
    "scheme": "sc",
    "k": 6,
    "n": 200,
    "semantics": "asymptotic",
    "trials": 1000,
    "seed": 9,
}


class TestRunSizeAndLayout:
    # SimSpec checked only trials >= 1 and workers >= 1: 10^13 trials built
    # run_sim's per-block list until the process was killed, and its pool
    # starts a thread per block up to `workers`. A key outside a JSON layout
    # was ignored, so a misspelt optional key ran as if it were absent.
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["simulate", "--k", "10", "--trials", "1e13"], "trials must lie in"),
            (["simulate", "--k", "10", "--trials", "1000", "--workers", "100000"],
             "workers must lie in"),
            (["validate", "montecarlo", "--trials", "1e13"], "trials must lie in"),
            (["validate", "montecarlo", "--workers", "100000"], "workers must lie in"),
        ],
        ids=["simulate-trials", "simulate-workers", "validate-trials", "validate-workers"],
    )
    def test_run_size_past_its_cap_is_config_error(self, argv, message):
        source = ("--beta", "0.8", "--eta", "8") if argv[0] == "simulate" else ()
        result = run_cli_in_subprocess(argv, source=source)
        assert result.returncode == EXIT_BAD_CONFIG, result.stderr
        assert "Traceback" not in result.stderr
        assert message in result.stderr

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"trials": 1e13}, "trials must lie in"),
            ({"workers": 100000}, "workers must lie in"),
            ({"extra": 1}, "unknown fields: ['extra']"),
            ({"varaince_reduced": True}, "unknown fields: ['varaince_reduced']"),
            (
                {"topology": {"r0": 20, "alpha": 3.5, "interferers": [30, 70], "name": "B"}},
                "unknown fields: ['name']",
            ),
        ],
        ids=["trials", "workers", "extra-key", "misspelt-key", "topology-key"],
    )
    def test_spec_file_is_config_error(self, change, message, tmp_path):
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps({**SPEC_DOC, **change}))
        result = run_cli_in_subprocess(["simulate", "--spec", str(spec_path)], source=())
        assert result.returncode == EXIT_BAD_CONFIG, result.stderr
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert message in result.stderr

    def test_spec_that_is_not_an_object_is_config_error(self, tmp_path):
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps([SPEC_DOC]))
        result = run_cli_in_subprocess(["simulate", "--spec", str(spec_path)], source=())
        assert result.returncode == EXIT_BAD_CONFIG, result.stderr
        assert "simulation spec must be a JSON object" in result.stderr

    @pytest.mark.parametrize(
        "flags,named",
        [
            (["--trials", "5", "--M", "4", "--k", "99"], "--trials, --M, --k"),
            (["--tri", "5"], "--trials"),  # an abbreviation is named in full
            (["--variance-reduced"], "--variance-reduced"),
        ],
        ids=["valued", "abbreviated", "switch"],
    )
    def test_spec_refuses_run_flags(self, flags, named, tmp_path):
        # the spec's 1,000 trials ran and the typed flags were dropped: exit 0
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps(SPEC_DOC))
        result = run_cli_in_subprocess(["simulate", "--spec", str(spec_path), *flags], source=())
        assert result.returncode == EXIT_BAD_CONFIG, result.stderr
        assert result.stdout == ""
        assert f"--spec replaces the run flags; drop {named}" in result.stderr

    def test_spec_writes_its_record_with_out_and_ignores_presets(self, tmp_path, capsys):
        spec_path, out_path = tmp_path / "run.json", tmp_path / "record.json"
        spec_path.write_text(json.dumps(SPEC_DOC))
        code, printed, _ = run_cli(["simulate", "--spec", str(spec_path)], capsys)
        assert code == EXIT_OK
        env = {"URP_TRIALS": "5", "URP_SEED": "1"}  # not typed, so --spec ignores them
        result = run_cli_in_subprocess(
            ["simulate", "--spec", str(spec_path), "--out", str(out_path)], source=(), env=env
        )
        assert result.returncode == EXIT_OK, result.stderr
        assert result.stdout == ""
        assert out_path.read_text() == printed
        assert json.loads(printed)["trials"] == 1000

    @pytest.mark.parametrize(
        "doc,key",
        [
            ({"r0": 20, "alpha": 3.5, "interferers": [30, 70], "aplha": 4}, "aplha"),
            ({"path_losses": {"l0": 1e4, "lj": [1e-5, 2e-5]}, "r0": 20}, "r0"),
            ({"path_losses": {"l0": 1e4, "lj": [1e-5, 2e-5], "unit": "dB"}}, "unit"),
        ],
        ids=["distances", "path-losses", "path-losses-object"],
    )
    def test_rate_topology_with_unknown_key_is_config_error(self, doc, key, tmp_path, capsys):
        path = tmp_path / "topology.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["rate", "--topology", str(path), "--eps", "1e-3"], capsys)
        assert code == EXIT_BAD_CONFIG
        assert out == ""
        assert f"unknown fields: [{key!r}]" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestFloatRangeEdges:
    @pytest.mark.parametrize(
        "argv",
        [
            # 2^(k/n) - 1 overflowed math.expm1 in a traceback (exit 1)
            ["simulate", "--beta", "0.8", "--eta", "8", "--k", "300000", "--n", "200",
             "--trials", "1000"],
            ["rate", "--beta", "1e-308", "--eta", "8", "--M", "16", "--n", "200",
             "--eps", "0.999999", "--method", "exact"],
        ],
    )
    def test_threshold_past_the_largest_double_is_config_error(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_BAD_CONFIG
        assert out == ""
        assert "k/n = " in err
        assert "Traceback" not in err and "Overflow" not in err

    def test_finite_blocklength_run_needs_no_threshold(self, capsys):
        # the FB error is 1 at k/n = 1500; forming the unused threshold was
        # the same traceback
        code, out, err = run_cli(
            ["simulate", "--beta", "0.8", "--eta", "8", "--k", "300000", "--n", "200",
             "--trials", "1000", "--semantics", "fb"],
            capsys,
        )
        assert code == EXIT_OK
        assert json.loads(out)["errors"] == 1000
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            # the SIR overflows to inf in the division: "overflow in divide"
            ["simulate", "--beta", "1e-308", "--eta", "8", "--k", "0", "--trials", "1e4"],
            # the dispersion of an infinite SIR: "overflow in square"
            ["simulate", "--beta", "1e-308", "--eta", "1", "--n", "100000000", "--k", "50",
             "--trials", "1", "--scheme", "mrc", "--semantics", "fb"],
        ],
    )
    def test_infinite_sir_runs_without_warning(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_OK
        assert json.loads(out)["errors"] == 0
        assert "Warning" not in err


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == EXIT_USAGE

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["rate", "--frequency", "test"])
        assert excinfo.value.code == EXIT_USAGE

    def test_bad_scope(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["validate", "everything"])
        assert excinfo.value.code == EXIT_USAGE


@pytest.mark.parametrize("command", ["rate", "sweep"])
def test_method_help_lists_every_alias(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == EXIT_OK
    (listed,) = re.findall(r"comma list of (\w+(?:\|\w+)+)", capsys.readouterr().out)
    aliases = listed.split("|")
    assert len(aliases) == len(set(aliases))
    assert set(aliases) == {alias for alias, _ in _METHOD_ALIASES}


def _flags(values: dict) -> list[str]:
    return [text for name, value in values.items() for text in (f"--{name}", value)]


# extreme but valid values: the smallest subnormal and the largest double
# below 1 as targets, and laws from a subnormal beta up
_EXTREME_EPS = st.one_of(
    st.sampled_from([5e-324, 1e-300, 0.9999999999999999]),
    st.floats(5e-324, 0.9999999999999999),
)
_EXTREME_BETA = st.one_of(st.sampled_from([5e-324, 1e-308, 1e308]), st.floats(5e-324, 1e308))


@st.composite
def _extreme_rate_or_sweep(draw):
    """`rate` or `sweep` argv over every alias; eta <= 10^4 for exact, n <= 10^4 for fb."""
    alias = draw(st.sampled_from(sorted({alias for alias, _ in _METHOD_ALIASES})))
    eta = st.integers(1, 10**4 if alias == "exact" else 10**6)
    antennas = st.integers(1, 1024)
    blocklength = st.integers(1, 10**4 if alias == "fb" else 10**8)
    values = {
        "beta": repr(draw(_EXTREME_BETA)),
        "eta": str(draw(eta)),
        "M": str(draw(antennas)),
        "n": str(draw(blocklength)),
        "eps": repr(draw(_EXTREME_EPS)),
        "scheme": draw(st.sampled_from([s.value for s in Scheme])),
        "method": alias,
    }
    if draw(st.booleans()):
        return ["rate", *_flags(values)]
    axis, strategy = draw(
        st.sampled_from(
            [("eps", _EXTREME_EPS), ("beta", _EXTREME_BETA), ("M", antennas), ("n", blocklength)]
        )
    )
    points = draw(st.lists(strategy, min_size=1, max_size=2))
    return ["sweep", *_flags(values), "--axis", axis, "--values", ",".join(map(repr, points))]


@st.composite
def _extreme_simulate(draw):
    """`simulate` argv under both semantics; trials <= 4096, eta <= 64 and
    M <= 16 keep each run to one small block."""
    values = {
        "beta": repr(draw(_EXTREME_BETA)),
        "eta": str(draw(st.integers(1, 64))),
        "M": str(draw(st.integers(1, 16))),
        "k": str(draw(st.integers(0, 10**6))),
        "n": str(draw(st.integers(1, 10**8))),
        "scheme": draw(st.sampled_from([s.value for s in Scheme])),
        "semantics": draw(st.sampled_from([s.value for s in Semantics])),
        "trials": str(draw(st.integers(1, 4096))),
        "workers": str(draw(st.integers(1, 2))),
    }
    argv = ["simulate", *_flags(values)]
    if draw(st.booleans()):
        argv += ["--eps", repr(draw(_EXTREME_EPS))]
    if draw(st.booleans()):
        argv.append("--variance-reduced")
    return argv


class TestExitCodeProperty:
    @pytest.mark.filterwarnings("ignore:normal approximation validated")
    @given(argv=_extreme_rate_or_sweep())
    @settings(max_examples=300, deadline=None)
    def test_extreme_valid_flags_exit_cleanly(self, argv):
        self._assert_exits_cleanly(argv)

    @given(argv=_extreme_simulate())
    @settings(max_examples=300, deadline=None)
    def test_extreme_simulate_flags_exit_cleanly(self, argv):
        self._assert_exits_cleanly(argv)

    @staticmethod
    def _assert_exits_cleanly(argv):
        # success, infeasible, usage or configuration error: never a
        # traceback, and never a numpy warning (an error in this suite)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (EXIT_OK, EXIT_INFEASIBLE, EXIT_USAGE, EXIT_BAD_CONFIG), err.getvalue()
        assert "Traceback" not in err.getvalue()


class TestSweep:
    def test_single_value_sweep_matches_rate(self, capsys):
        code, out, _ = run_cli(
            [
                "rate",
                *FIG2_FLAGS,
                "--eps",
                "1e-4",
                "--scheme",
                "sc",
                "--method",
                "approx",
                "--json",
            ],
            capsys,
        )
        assert code == EXIT_OK
        rate_result = json.loads(out)["results"][0]

        code, out, _ = run_cli(
            [
                "sweep",
                *FIG2_FLAGS,
                "--scheme",
                "sc",
                "--axis",
                "eps",
                "--values",
                "1e-4",
                "--methods",
                "approx",
            ],
            capsys,
        )
        assert code == EXIT_OK
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        cells = dict(zip(header, lines[1].split(",")))
        assert int(cells["k_star"]) == rate_result["k_star"]
        assert float(cells["k_real"]) == pytest.approx(rate_result["k_real"], rel=1e-12)
        assert float(cells["predicted_epsilon"]) == pytest.approx(
            rate_result["predicted_epsilon"], rel=1e-12
        )

    def test_preset_writes_csv(self, tmp_path, capsys):
        out_path = tmp_path / "fig3.csv"
        code, _, _ = run_cli(["sweep", "--preset", "fig3", "--out", str(out_path)], capsys)
        assert code == EXIT_OK
        content = out_path.read_text()
        assert content.startswith("# generator: urp sweep\n# preset: fig3\n")
        assert "antennas,eta,x,cdf,lower_bound" in content.splitlines()[2]

    def test_preset_output_byte_stable(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run_cli(
                ["sweep", "--preset", "fig6", "--out", str(path)], capsys
            )
            assert code == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_workers_flag_is_usage_error(self):
        # sweeps run serially and take no --workers
        result = run_cli_in_subprocess(["sweep", "--preset", "fig6", "--workers", "2"])
        assert result.returncode == EXIT_USAGE
        assert "unrecognized arguments: --workers 2" in result.stderr
        assert "Traceback" not in result.stderr and result.stdout == ""

    def test_unknown_preset(self, capsys):
        code, _, err = run_cli(["sweep", "--preset", "fig99"], capsys)
        assert code == EXIT_BAD_CONFIG
        assert err.startswith("urp: unknown preset 'fig99'; known: fig2,")

    @pytest.mark.parametrize(
        "axis, values, fixed",
        [
            ("eps", "1e-6,1e-9", "M: 4; n: 200; eta: 8; beta: 0.8"),
            ("M", "1,2", "n: 200; eps: 0.001; eta: 8; beta: 0.8"),
            ("n", "100,300", "M: 4; eps: 0.001; eta: 8; beta: 0.8"),
            ("beta", "0.5,2", "M: 4; n: 200; eps: 0.001; eta: 8"),
        ],
    )
    def test_generic_sweep_header_omits_the_swept_field(self, axis, values, fixed, capsys):
        # the header printed the swept field's flag value, which no row uses
        argv = ["sweep", "--beta", "0.8", "--eta", "8", "--M", "4", "--n", "200"]
        argv += ["--axis", axis, "--values", values, "--methods", "approx"]
        code, out, _ = run_cli(argv, capsys)
        assert code == EXIT_OK
        assert out.splitlines()[:2] == [
            "# generator: urp sweep",
            f"# axis: {axis}; scheme: sc; {fixed}",
        ]

    @pytest.mark.parametrize(
        "axis, values, swept",
        [
            ("beta", "0.5,0.8", []),
            ("eps", "1e-3,1e-6", ["--eps", "5"]),
            ("M", "1,2", ["--M", "0"]),
            ("n", "100,300", ["--n", "0"]),
        ],
    )
    def test_generic_sweep_ignores_the_swept_fields_flag(self, axis, values, swept, capsys):
        # no row uses the swept field's fixed value, yet a missing --beta or
        # an invalid --eps, --M or --n made the sweep exit 65
        sweep = ["sweep", "--eta", "8", "--axis", axis, "--values", values]
        sweep += ["--methods", "approx,fb"]
        fixed = {"beta": "0.8", "eps": "1e-3", "M": "2", "n": "200"}
        code, out, err = run_cli([*sweep, *_flags(fixed)], capsys)
        assert code == EXIT_OK, err
        del fixed[axis]
        code, swept_out, err = run_cli([*sweep, *_flags(fixed), *swept], capsys)
        assert code == EXIT_OK, err
        assert swept_out == out

    def test_generic_sweep_needs_axis(self, capsys):
        code, _, err = run_cli(["sweep", *FIG2_FLAGS], capsys)
        assert code == EXIT_BAD_CONFIG

    @pytest.mark.parametrize(
        "axis,values",
        [("M", "1.5,2"), ("n", "200.7,300"), ("M", "1,1e400")],
    )
    def test_non_integral_axis_value_is_config_error(self, axis, values, capsys):
        # these were truncated by int() (or overflowed it) instead of refused
        argv = ["sweep", "--beta", "0.8", "--eta", "8", "--scheme", "sc"]
        argv += ["--axis", axis, "--values", values, "--methods", "approx"]
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_BAD_CONFIG
        assert f"{axis} values must be integers" in err
        assert out == ""

    def test_nan_axis_value_is_named(self, capsys):
        # NaN compares false both ways, so it was reported as misordered
        argv = ["sweep", "--beta", "0.8", "--eta", "8", "--M", "2", "--n", "200"]
        argv += ["--axis", "beta", "--values", "nan,0.5", "--methods", "fb"]
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_BAD_CONFIG
        assert "beta values must not be NaN, got (nan, 0.5)" in err
        assert "ordered" not in err and out == ""

    def test_beta_axis_on_unequal_topology_is_config_error(self, topology_file, capsys):
        # each beta value was solved on an equal-weight law, so the topology's
        # sc_exact rows matched sc_approx to 1e-11 and its own law went unsolved
        argv = ["sweep", "--topology", topology_file, "--axis", "beta"]
        argv += ["--values", "0.1,0.3", "--methods", "exact,approx"]
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_BAD_CONFIG
        assert "path losses differ" in err
        assert out == ""


class TestSimulate:
    def test_deterministic_across_workers(self, topology_file, capsys):
        outputs = []
        for workers in ("1", "8"):
            code, out, err = run_cli(
                [
                    "simulate",
                    "--topology",
                    topology_file,
                    "--M",
                    "2",
                    "--k",
                    "8",
                    "--n",
                    "200",
                    "--scheme",
                    "sc",
                    "--trials",
                    "2e5",
                    "--seed",
                    "42",
                    "--workers",
                    workers,
                ],
                capsys,
            )
            assert code == EXIT_OK
            # wall-clock goes to stderr, not the record: 2e5 trials are 4 blocks
            assert re.fullmatch(r"elapsed: \d+\.\d{3}s, 4 blocks, \d\.\d\de\+\d\d trials/s\n", err)
            outputs.append(out)
        assert outputs[0] == outputs[1]
        record = json.loads(outputs[0])
        assert record["trials"] == 200_000
        assert record["seed"] == 42

    def test_scientific_notation_trials(self, topology_file, capsys):
        code, out, _ = run_cli(
            [
                "simulate",
                "--topology",
                topology_file,
                "--M",
                "1",
                "--k",
                "4",
                "--n",
                "200",
                "--trials",
                "1e4",
                "--seed",
                "1",
            ],
            capsys,
        )
        assert code == EXIT_OK
        assert json.loads(out)["trials"] == 10_000

    def test_non_finite_trials_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", *FIG2_FLAGS, "--k", "5", "--trials", "1e400"])
        assert excinfo.value.code == EXIT_USAGE

    def test_non_finite_trials_from_env_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("URP_TRIALS", "1e400")
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", *FIG2_FLAGS, "--k", "5"])
        assert excinfo.value.code == EXIT_USAGE
        assert "URP_TRIALS" in capsys.readouterr().err

    def test_infinite_beta_is_config_error(self, capsys):
        code, out, err = run_cli(
            ["simulate", "--beta", "inf", "--eta", "10", "--k", "5", "--trials", "1000"],
            capsys,
        )
        assert code == EXIT_BAD_CONFIG
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("eps", ["0", "nan", "-0.5", "1.5", "inf"])
    def test_target_outside_unit_interval_is_config_error(self, eps, capsys):
        argv = ["simulate", "--beta", "0.8", "--eta", "8", "--M", "2", "--k", "30", "--n", "200"]
        code, out, err = run_cli([*argv, "--trials", "1000", "--eps", eps], capsys)
        assert code == EXIT_BAD_CONFIG
        assert out == ""
        assert "epsilon_target must lie in (0, 1)" in err

    def test_spec_file_run(self, tmp_path, capsys):
        spec_path = tmp_path / "run.json"
        spec_path.write_text(
            json.dumps(
                {
                    "topology": {"r0": 20, "alpha": 3.5, "interferers": [30, 70]},
                    "antennas": 1,
                    "scheme": "sc",
                    "k": 6,
                    "n": 200,
                    "semantics": "asymptotic",
                    "trials": 20_000,
                    "seed": 9,
                }
            )
        )
        code, out, _ = run_cli(["simulate", "--spec", str(spec_path)], capsys)
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["trials"] == 20_000 and record["seed"] == 9

    @pytest.mark.parametrize(
        "field,raw",
        [
            # a string target was a TypeError traceback (exit 1)
            ("epsilon_target", '"1e-3"'),
            # JSON reads 1e400 as inf, and int(inf) was an OverflowError traceback
            ("trials", "1e400"),
            # bool("false") is True: 1,000 trials at eps 1e-3 ran and exited 0
            ("allow_undersampled", '"false"'),
            ("variance_reduced", '"false"'),  # ran variance-reduced
            # was truncated to 2 antennas
            ("antennas", "2.7"),
        ],
    )
    def test_spec_field_of_wrong_type_is_config_error(self, field, raw, tmp_path, capsys):
        doc = {
            "topology": {"r0": 20, "alpha": 3.5, "interferers": [30, 70]},
            "antennas": 1,
            "scheme": "sc",
            "k": 6,
            "n": 200,
            "semantics": "fb",
            "trials": 1000,
            "seed": 9,
            "epsilon_target": 1e-3,
            "allow_undersampled": True,
            "variance_reduced": False,
        }
        del doc[field]
        spec_path = tmp_path / "run.json"
        # written by hand, as json.dumps would spell 1e400 as Infinity
        spec_path.write_text(json.dumps(doc)[:-1] + f', "{field}": {raw}}}')
        code, out, err = run_cli(["simulate", "--spec", str(spec_path)], capsys)
        assert code == EXIT_BAD_CONFIG
        assert out == ""
        assert repr(field) in err

    @pytest.mark.parametrize(
        "raw",
        ["5", '"B"', '{"r0": 20, "alpha": 3.5, "interferers": 5}'],
        ids=["int", "string", "interferers-int"],
    )
    def test_spec_topology_of_wrong_type_is_config_error(self, raw, tmp_path, capsys):
        # "topology": 5 was a TypeError traceback (exit 1)
        spec_path = tmp_path / "run.json"
        spec_path.write_text(
            '{"antennas": 1, "scheme": "sc", "k": 6, "n": 200, "semantics": "fb", '
            f'"trials": 1000, "seed": 9, "topology": {raw}}}'
        )
        code, out, err = run_cli(["simulate", "--spec", str(spec_path)], capsys)
        assert code == EXIT_BAD_CONFIG
        assert out == ""
        assert "topology" in err

    def test_spec_file_excludes_source_flags(self, tmp_path, topology_file, capsys):
        spec_path = tmp_path / "run.json"
        spec_path.write_text("{}")
        code, _, err = run_cli(
            ["simulate", "--spec", str(spec_path), "--topology", topology_file], capsys
        )
        assert code == EXIT_BAD_CONFIG

    def test_undersampled_guard_exit(self, topology_file, capsys):
        code, _, err = run_cli(
            [
                "simulate",
                "--topology",
                topology_file,
                "--M",
                "1",
                "--k",
                "4",
                "--n",
                "200",
                "--trials",
                "1e4",
                "--eps",
                "1e-6",
            ],
            capsys,
        )
        assert code == EXIT_BAD_CONFIG
        assert "allow_undersampled" in err
        assert "--allow-undersampled" in err


class TestValidate:
    def test_bounds_scope_passes(self, capsys):
        code, out, _ = run_cli(["validate", "bounds"], capsys)
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.splitlines()]
        assert all(r["pass"] for r in records)
        names = {r["check"] for r in records}
        assert "bounds.lower_bound_below_cdf" in names
        assert "bounds.single_antenna_equality" in names

    def test_tails_scope_passes(self, capsys):
        code, out, _ = run_cli(["validate", "tails"], capsys)
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.splitlines()]
        assert all(r["pass"] for r in records)
        assert sum(1 for r in records if "left_tail" in r["check"]) == 3

    def test_montecarlo_scope_small(self, capsys):
        code, out, _ = run_cli(
            ["validate", "montecarlo", "--trials", "2e5", "--seed", "8", "--workers", "4"],
            capsys,
        )
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 9
        assert code == EXIT_OK
        assert all(r["pass"] for r in records)
        for r in records:
            prediction, empirical = r["prediction"], r["empirical"]
            assert r["rel_gap"] == pytest.approx(prediction / empirical - 1.0, rel=1e-12)
            sigma = (prediction * (1.0 - prediction) / r["trials"]) ** 0.5
            assert r["z"] == pytest.approx((prediction - empirical) / sigma, rel=1e-12)
