"""The numbers README's "The paper's claims in numbers" quotes, read off the goldens."""
import csv
from pathlib import Path

_DATA = Path(__file__).parent / "data"


def _rows(name: str) -> list[dict[str, str]]:
    with open(_DATA / name) as handle:
        return list(csv.DictReader(handle))


def test_antennas_that_make_each_target_feasible():
    # claim 1: ultra-reliable operation becomes feasible as M grows
    # (fig5: eta=8, beta=0.8, n=400, M from 1 to 16)
    feasible: dict[tuple[str, str, float], set[int]] = {}
    for row in _rows("fig5.csv"):
        key = (row["scheme"], row["method"], float(row["epsilon_th"]))
        if int(row["k_star"]) > 0:
            feasible.setdefault(key, set()).add(int(row["antennas"]))
    smallest = {}
    for (scheme, method, eps), antennas in feasible.items():
        assert antennas == set(range(min(antennas), 17))  # and stays so
        smallest.setdefault((scheme, method), {})[eps] = min(antennas)
    assert {key: (m[1e-3], m[1e-6], m[1e-9]) for key, m in smallest.items()} == {
        ("sc", "sc_approx"): (2, 3, 4),
        ("sc", "fb"): (2, 3, 5),
        ("mrc", "mrc_numeric"): (2, 2, 3),
        ("mrc", "mrc_closed"): (2, 2, 3),
        ("mrc", "fb"): (2, 3, 4),
    }


def test_finite_blocklength_loss_is_nearly_constant_in_n():
    # claim 2: the FB payload trails the asymptotic one by a few bits at every
    # blocklength, so the relative loss falls like 1/n (fig6: SC, n 100-2000)
    k_star: dict[tuple[int, float, int, str], int] = {
        (int(r["antennas"]), float(r["epsilon_th"]), int(r["blocklength"]), r["method"]):
        int(r["k_star"])
        for r in _rows("fig6.csv")
    }
    losses: dict[tuple[int, float], set[int]] = {}
    for (m, eps, n, method), k in k_star.items():
        if method == "fb":
            losses.setdefault((m, eps), set()).add(k_star[m, eps, n, "sc_approx"] - k)
    blocklengths = {n for _, _, n, _ in k_star}
    assert blocklengths == {100, 200, 300, 400, 600, 800, 1200, 1600, 2000}
    assert losses == {
        (8, 1e-6): {9},
        (8, 1e-3): {6},
        (4, 1e-6): {5, 6},
        (4, 1e-3): {4, 5},
    }
