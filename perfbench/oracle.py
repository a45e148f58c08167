"""Output checks made apart from the daemon.

* Routing optima are recomputed with ``scipy.sparse.csgraph.dijkstra``
  over the Level3 links, each directed edge ``u -> v`` weighted
  ``length_uv + alpha_ij * risk(v)`` (Equation 1's entry charge), with
  ``risk = gamma_h * o_h + gamma_f * o_f`` for the field the benchmark
  installed.  ``o_f`` is the advisory map it sent.  ``o_h`` is kept by
  :class:`KdeField`, an incremental Equation 2 KDE over the corpus
  events plus every event batch the daemon acknowledged.
* Every returned path must be a walk over existing links whose
  recomputed cost equals the reported cost.
* Properties the method must have: per-pair ``risk_ratio <= 1 <=
  distance_ratio``, ``ratios`` covering n(n-1) pairs, provisioned links
  that are new and cut bit-risk, scenario fractions inside [0, 1].
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

#: Relative tolerance for cost comparisons (the daemon sums the same
#: terms in path order; scipy may add them in another order).
RTOL = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(1.0, abs(a), abs(b))


class Oracle:
    """Independent recomputation over one network view."""

    def __init__(self, view: dict) -> None:
        self.nodes: List[str] = view["nodes"]
        self.index = {node: i for i, node in enumerate(self.nodes)}
        self.n = len(self.nodes)
        self.shares = np.asarray(view["shares"], dtype=np.float64)
        self.gamma_h = view["gamma_h"]
        self.gamma_f = view["gamma_f"]
        rows, cols, lengths = [], [], []
        self.length: Dict[tuple, float] = {}
        for a, b, miles in view["links"]:
            rows += [a, b]
            cols += [b, a]
            lengths += [miles, miles]
            self.length[(a, b)] = self.length[(b, a)] = miles
        self._rows = np.asarray(rows)
        self._cols = np.asarray(cols)
        self._lengths = np.asarray(lengths, dtype=np.float64)

    def risk(self, oh: Sequence[float], of: Sequence[float]) -> np.ndarray:
        """Per-node entry risk ``gamma_h * o_h + gamma_f * o_f``."""
        return (self.gamma_h * np.asarray(oh, dtype=np.float64)
                + self.gamma_f * np.asarray(of, dtype=np.float64))

    def optimum(self, s: int, t: int, alpha: float,
                risk: Optional[np.ndarray]) -> float:
        """Least ``length + alpha * entry risk`` cost from ``s`` to ``t``."""
        weights = self._lengths
        if alpha:
            weights = weights + alpha * risk[self._cols]
        graph = csr_matrix((weights, (self._rows, self._cols)),
                           shape=(self.n, self.n))
        return float(dijkstra(graph, directed=True, indices=s)[t])

    def walk(self, path: Sequence[str], source: str, target: str,
             alpha: float, risk: Optional[np.ndarray]) -> tuple:
        """(miles, risk-miles) of a path, or raise ValueError if it is
        not a walk over existing links from source to target."""
        if not path or path[0] != source or path[-1] != target:
            raise ValueError(f"path {path[:3]}... does not join {source} and {target}")
        idx = [self.index[node] for node in path]
        miles = 0.0
        cost = 0.0
        for u, v in zip(idx, idx[1:]):
            if (u, v) not in self.length:
                raise ValueError(f"no link {self.nodes[u]} - {self.nodes[v]}")
            miles += self.length[(u, v)]
            cost += self.length[(u, v)]
            if risk is not None:
                cost += alpha * risk[v]
        return miles, cost

    # -- per-reply checks ---------------------------------------------------

    def check_shape(self, op: str, params: dict, result: dict) -> List[str]:
        """Checks that need no risk field: walks, miles, ratio bounds."""
        errors: List[str] = []
        s, t = params["source"], params["target"]
        routes = ([result["shortest"], result["riskroute"]]
                  if op == "pair" else [result])
        for route in routes:
            try:
                miles, _ = self.walk(route["path"], s, t, 0.0, None)
            except (ValueError, KeyError) as exc:
                errors.append(f"{op} {s}->{t}: {exc}")
                continue
            if not _close(miles, route["bit_miles"]):
                errors.append(f"{op} {s}->{t}: path miles {miles} != "
                              f"reported {route['bit_miles']}")
        if op == "pair":
            rr, dr = result["risk_ratio"], result["distance_ratio"]
            if not (rr <= 1.0 + RTOL and dr >= 1.0 - RTOL):
                errors.append(f"pair {s}->{t}: risk_ratio {rr} / "
                              f"distance_ratio {dr} out of order")
        return errors

    def check_optimum(self, op: str, params: dict, result: dict,
                      risk: np.ndarray) -> List[str]:
        """The reported costs against the scipy optimum and the walk."""
        errors: List[str] = []
        s, t = params["source"], params["target"]
        si, ti = self.index[s], self.index[t]
        alpha = float(self.shares[si] + self.shares[ti])
        best = self.optimum(si, ti, alpha, risk)
        rr = result["riskroute"] if op == "pair" else result
        _, cost = self.walk(rr["path"], s, t, alpha, risk)
        if not _close(cost, rr["bit_risk_miles"]):
            errors.append(f"{op} {s}->{t}: path cost {cost} != reported "
                          f"{rr['bit_risk_miles']}")
        if not _close(best, rr["bit_risk_miles"]):
            errors.append(f"{op} {s}->{t}: reported {rr['bit_risk_miles']} "
                          f"!= scipy optimum {best}")
        if op == "pair":
            shortest = self.optimum(si, ti, 0.0, None)
            if not _close(shortest, result["shortest"]["bit_miles"]):
                errors.append(f"pair {s}->{t}: shortest "
                              f"{result['shortest']['bit_miles']} != scipy "
                              f"{shortest}")
        return errors

    # -- planning checks ----------------------------------------------------

    def check_ratios(self, result: dict) -> List[str]:
        errors = []
        want = self.n * (self.n - 1)
        if result["pair_count"] != want:
            errors.append(f"ratios covered {result['pair_count']} pairs, "
                          f"want {want}")
        rr = result["risk_reduction_ratio"]
        dr = result["distance_increase_ratio"]
        if not (0.0 <= rr <= 1.0 and dr >= 0.0):
            errors.append(f"ratios out of range: rr {rr}, dr {dr}")
        return errors

    def check_provision(self, result: dict, k: int) -> List[str]:
        errors = []
        recs = result["recommendations"]
        if len(recs) != k:
            errors.append(f"provision returned {len(recs)} links, want {k}")
        seen = set()
        for rec in recs:
            a, b = self.index[rec["pop_a"]], self.index[rec["pop_b"]]
            key = (min(a, b), max(a, b))
            if a == b or (a, b) in self.length or key in seen:
                errors.append(f"provisioned link {rec['pop_a']} - "
                              f"{rec['pop_b']} is not new")
            seen.add(key)
            if not rec["aggregate_bit_risk"] < rec["baseline_bit_risk"]:
                errors.append(f"provisioned link {rec['pop_a']} - "
                              f"{rec['pop_b']} does not cut bit-risk")
        return errors

    @staticmethod
    def check_scenario(result: dict) -> List[str]:
        errors = []
        for policy in ("shortest", "riskroute"):
            metrics = result[policy]
            for key in ("route_survival", "demand_survival",
                        "unserved_demand"):
                if not 0.0 <= metrics[key] <= 1.0:
                    errors.append(f"scenario {policy}.{key} = "
                                  f"{metrics[key]} outside [0, 1]")
        return errors


def haversine_miles(latlon: np.ndarray, lat: np.ndarray, lon: np.ndarray,
                    radius_miles: float) -> np.ndarray:
    """(len(latlon), len(lat)) great-circle miles."""
    a = np.radians(latlon)
    blat, blon = np.radians(lat), np.radians(lon)
    h = (np.sin((a[:, :1] - blat[None, :]) / 2.0) ** 2
         + np.cos(a[:, :1]) * np.cos(blat)[None, :]
         * np.sin((a[:, 1:] - blon[None, :]) / 2.0) ** 2)
    return 2.0 * radius_miles * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))


def kernel_sums(latlon: np.ndarray, events: np.ndarray, sigma: float,
                radius_miles: float, chunk: int = 8192) -> np.ndarray:
    """Gaussian kernel sums ``sum_e exp(-d(x, e)^2 / 2 sigma^2)`` per row."""
    out = np.zeros(latlon.shape[0], dtype=np.float64)
    for start in range(0, events.shape[0], chunk):
        part = events[start:start + chunk]
        d = haversine_miles(latlon, part[:, 0], part[:, 1], radius_miles)
        out += np.exp(-(d ** 2) / (2.0 * sigma ** 2)).sum(axis=1)
    return out


class KdeField:
    """The ``o_h`` field at the PoPs, kept by an incremental KDE.

    Equation 2 per class ``c``: ``density_c(x) = S_c(x) / (2 pi sigma_c^2
    N_c)`` with kernel sums ``S_c``; ``o_h = sum_c density_c * sigma_c *
    unit``.  An ingest adds each new event's kernel to ``S_c`` and one to
    ``N_c``.  The starting sums come from ``prepare.py``.
    """

    def __init__(self, view: dict) -> None:
        kde = view["kde"]
        self._latlon = np.asarray(view["latlon"], dtype=np.float64)
        self._radius = kde["earth_radius_miles"]
        self._unit = kde["risk_unit_miles"]
        self._classes = {
            name: {"sigma": c["sigma"], "n": c["n"],
                   "sums": np.asarray(c["sums"], dtype=np.float64)}
            for name, c in kde["classes"].items()
        }

    @property
    def oh(self) -> np.ndarray:
        total = np.zeros(self._latlon.shape[0], dtype=np.float64)
        for name in sorted(self._classes):
            c = self._classes[name]
            density = c["sums"] / (2.0 * np.pi * c["sigma"] ** 2 * c["n"])
            total += density * c["sigma"] * self._unit
        return total

    def ingest(self, records: List[dict]) -> None:
        for r in records:
            c = self._classes[r["event_type"]]
            c["sums"] = c["sums"] + kernel_sums(
                self._latlon, np.array([[r["lat"], r["lon"]]]), c["sigma"],
                self._radius)
            c["n"] += 1
