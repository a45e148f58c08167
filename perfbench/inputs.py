"""Seeded inputs for the benchmark workloads.

Everything a workload sends is drawn here from ``--seed`` and the
static Level3 view written by ``prepare.py`` (PoP ids, coordinates,
links).  The daemon receives only the generated requests.  Each
connection draws from its own stream, so the k-th request of a
connection is the same for a given seed however long the run lasts.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Sequence, Tuple

#: Event classes a storm advisory's ingest batches carry.
STORM_EVENT_TYPES = ("fema-hurricane", "fema-storm", "noaa-wind")
#: Year stamped on streamed events (inside the corpus window, so no
#: event is stale).
EVENT_YEAR = 2013


def stream(seed: int, name: str) -> random.Random:
    """An independent, reproducible random stream for one input kind."""
    return random.Random(f"{seed}:{name}")


def _miles(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp, dl = p2 - p1, math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * 3958.8 * math.asin(min(1.0, math.sqrt(a)))


class ZipfPairs:
    """A hot set of ordered pairs drawn with Zipf(s) weights by rank."""

    def __init__(self, nodes: Sequence[str], rng: random.Random,
                 hot: int = 96, s: float = 1.1) -> None:
        pairs = set()
        while len(pairs) < hot:
            a, b = rng.sample(list(nodes), 2)
            pairs.add((a, b))
        self.pairs: List[Tuple[str, str]] = sorted(pairs)
        rng.shuffle(self.pairs)
        weights = [1.0 / (rank + 1) ** s for rank in range(hot)]
        total = sum(weights)
        self._cum = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self._cum.append(acc)

    def draw(self, rng: random.Random) -> Tuple[str, str]:
        u = rng.random()
        lo, hi = 0, len(self._cum) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._cum[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return self.pairs[lo]


class UniformPairs:
    """Ordered pairs drawn uniformly over all n(n-1) pairs."""

    def __init__(self, nodes: Sequence[str]) -> None:
        self._nodes = list(nodes)

    def draw(self, rng: random.Random) -> Tuple[str, str]:
        a, b = rng.sample(self._nodes, 2)
        return a, b


def read_request(pairs, rng: random.Random) -> Tuple[str, Dict[str, str]]:
    """One read: ``pair`` or ``route`` (1:1) over the pair distribution."""
    source, target = pairs.draw(rng)
    op = "pair" if rng.random() < 0.5 else "route"
    return op, {"source": source, "target": target}


class StormTrack:
    """A hurricane moving up the Gulf and East coasts, one step per advisory.

    Each advisory is a forecast field ``o_f`` over the PoPs inside the
    storm's radius (peak at the eye, Gaussian fall-off); every other
    PoP gets the daemon-side default 0.  Each ingest batch is a handful
    of damage reports scattered around PoPs under the storm.
    """

    #: (lat, lon) waypoints: Corpus Christi -> New Orleans -> Tampa ->
    #: Charleston -> Norfolk -> New York -> Boston.
    WAYPOINTS = (
        (27.8, -97.4), (29.95, -90.07), (27.95, -82.46), (32.78, -79.93),
        (36.85, -76.29), (40.71, -74.0), (42.36, -71.06),
    )

    def __init__(self, view: dict, seed: int, radius_miles: float,
                 steps: int = 48) -> None:
        self._ids = view["nodes"]
        self._latlon = view["latlon"]
        self._radius = radius_miles
        self._rng_seed = seed
        rng = stream(seed, "track")
        self._jitter = [
            (rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
            for _ in range(steps)
        ]
        self._steps = steps

    def center(self, k: int) -> Tuple[float, float]:
        legs = len(self.WAYPOINTS) - 1
        pos = (k % self._steps) / self._steps * legs
        i = min(int(pos), legs - 1)
        f = pos - i
        (la1, lo1), (la2, lo2) = self.WAYPOINTS[i], self.WAYPOINTS[i + 1]
        dj = self._jitter[k % self._steps]
        return la1 + f * (la2 - la1) + dj[0], lo1 + f * (lo2 - lo1) + dj[1]

    def near(self, k: int, radius: float) -> List[int]:
        lat, lon = self.center(k)
        near = [
            (i, _miles(lat, lon, pl, po))
            for i, (pl, po) in enumerate(self._latlon)
        ]
        return [i for i, d in sorted(near, key=lambda x: x[1]) if d <= radius]

    def advisory(self, k: int) -> Dict[str, float]:
        """The ``o_f`` map of advisory ``k`` (never empty)."""
        lat, lon = self.center(k)
        rng = stream(self._rng_seed, f"advisory:{k}")
        peak = rng.uniform(0.6, 1.0)
        out: Dict[str, float] = {}
        for i, (pl, po) in enumerate(self._latlon):
            d = _miles(lat, lon, pl, po)
            if d <= self._radius:
                out[self._ids[i]] = peak * math.exp(-(d / self._radius) ** 2 * 2)
        if not out:
            nearest = self.near(k, float("inf"))[0]
            out[self._ids[nearest]] = peak
        return out

    def events(self, k: int, size: int) -> List[dict]:
        """Ingest batch ``k``: ``size`` unique records near storm PoPs."""
        rng = stream(self._rng_seed, f"events:{k}")
        around = self.near(k, self._radius) or self.near(k, float("inf"))[:3]
        batch = []
        for _ in range(size):
            pl, po = self._latlon[rng.choice(around)]
            batch.append({
                "event_type": rng.choice(STORM_EVENT_TYPES),
                "lat": round(pl + rng.gauss(0.0, 0.25), 6),
                "lon": round(po + rng.gauss(0.0, 0.25), 6),
                "year": EVENT_YEAR,
            })
        return batch
