"""One-time preparation of a checkout for the benchmark.

Run as ``python3 perfbench/prepare.py <out_dir>`` with ``PYTHONPATH``
pointing at the checkout's ``src``.  It writes two things:

* ``<out_dir>/warm-cache/``: a risk-field cache directory holding the
  entries a Level3 daemon writes at its first start.  Runs of the warm
  workloads each start from a private copy of it.
* ``<out_dir>/level3.json``: the static Level3 view the input
  generators and the output checks use: PoP ids and coordinates, link
  lengths, population shares, the corpus ``o_h`` field and the gammas.

Both are built by the program under test, from the checkout being
measured, so they follow the code rather than a stored copy.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import numpy as np

from oracle import KdeField, kernel_sums

#: Largest relative gap allowed between the independent o_h and the
#: daemon's corpus field.
OH_RTOL = 1e-9

NETWORK = "Level3"


def main(out_dir: str) -> int:
    out = Path(out_dir)
    cache = out / "warm-cache"
    cache.mkdir(parents=True, exist_ok=True)
    os.environ["RISKROUTE_CACHE_DIR"] = str(cache)

    from repro.disasters.catalog import PRETRAINED_BANDWIDTHS, catalog_of
    from repro.disasters.events import EventType
    from repro.geo.distance import EARTH_RADIUS_MILES
    from repro.risk.historical import RISK_UNIT_MILES
    from repro.risk.model import RiskModel
    from repro.topology.zoo import network_by_name

    network = network_by_name(NETWORK)
    model = RiskModel.for_network(network)
    pops = network.pops()
    index = {pop.pop_id: i for i, pop in enumerate(pops)}
    view = {
        "network": NETWORK,
        "nodes": [pop.pop_id for pop in pops],
        "latlon": [[pop.location.lat, pop.location.lon] for pop in pops],
        "links": [
            [index[link.pop_a], index[link.pop_b], link.length_miles]
            for link in network.links()
        ],
        "shares": [model.share(pop.pop_id) for pop in pops],
        "oh": [model.historical_risk(pop.pop_id) for pop in pops],
        "gamma_h": model.gamma_h,
        "gamma_f": model.gamma_f,
    }
    # The corpus events, summed independently at every PoP: the start of
    # the o_h field the output checks keep through each ingest.
    latlon = np.asarray(view["latlon"], dtype=np.float64)
    classes = {}
    for event_type in EventType.ALL:
        events = np.asarray(
            [(p.lat, p.lon) for p in catalog_of(event_type).locations()],
            dtype=np.float64)
        sigma = PRETRAINED_BANDWIDTHS[event_type]
        classes[event_type] = {
            "sigma": sigma,
            "n": int(events.shape[0]),
            "sums": kernel_sums(latlon, events, sigma, EARTH_RADIUS_MILES).tolist(),
        }
    view["kde"] = {
        "earth_radius_miles": EARTH_RADIUS_MILES,
        "risk_unit_miles": RISK_UNIT_MILES,
        "classes": classes,
    }
    oh = KdeField(view).oh
    gap = np.max(np.abs(oh - view["oh"]) / np.maximum(np.abs(oh), 1e-300))
    if gap > OH_RTOL:
        print(f"independent o_h differs from the daemon's by {gap:.3g}",
              file=sys.stderr)
        return 1
    (out / "level3.json").write_text(json.dumps(view), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
