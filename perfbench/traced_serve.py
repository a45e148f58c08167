"""Run ``riskroute serve`` with the benchmark's per-layer spans installed.

Usage: ``python3 perfbench/traced_serve.py <spans.json> serve <args>``.
The daemon is the same CLI entry point users run; the spans are
written to ``<spans.json>`` when it exits.  Shard processes start with
``multiprocessing``'s spawn method, which loads this file again as
``__mp_main__``; each shard then traces itself and writes its spans to
``<spans>.shard<pid>.json`` when it stops.
"""

import os
import sys

import layers


def main() -> int:
    import repro.cli
    # The serve path imports these lazily; load them so every layer
    # function can be wrapped before the daemon starts.
    import repro.server.daemon  # noqa: F401
    import repro.scenario  # noqa: F401

    layers.install()
    try:
        return repro.cli.main(sys.argv[2:])
    finally:
        layers.dump(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
elif __name__ == "__mp_main__":
    import repro.scenario  # noqa: F401

    stem = sys.argv[1].removesuffix(".json")
    layers.install_shard(f"{stem}.shard{os.getpid()}.json")
