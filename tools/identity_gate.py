"""Bit-identity digests of the radio solver on a fixed set of runs.

Runs the 6 schemes on desk and paper scale, seeds 0-9, ``max_iter=50``,
through ``orchestrator.run`` of the ``fdiscc`` package found in <src-dir>,
and prints one sha256 per (scale, scheme) and one over all 120 runs. Each
digest covers a run's status, iteration count, ``repr`` of its metrics, its
trace rows with ``wall_ms`` zeroed and the bytes of every solution array. Two
source trees that print the same digests give bit-identical results on these
runs.

    python3 tools/identity_gate.py src

BLAS is pinned to one thread, as the benchmark runs it.
"""

import hashlib
import os
import sys

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"       # before numpy is imported

import numpy as np  # noqa: E402

SCALES = ("desk", "paper")
SEEDS = range(10)
MAX_ITER = 50


def run_digest(result) -> bytes:
    """The bytes a run's digest covers."""
    parts = [result.status, str(result.iterations)]
    with np.printoptions(floatmode="unique", threshold=sys.maxsize):
        parts.append(repr(vars(result.metrics)))
    parts += [repr(vars(row) | {"wall_ms": 0.0}) for row in result.trace]
    text = "\n".join(parts).encode()
    arrays = b"".join(f"{name}{a.dtype}{a.shape}".encode() + a.tobytes()
                      for name, a in vars(result.solution).items())
    return text + arrays


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/identity_gate.py <src-dir>", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath(argv[0]))
    from fdiscc import channels, config, orchestrator

    make = {"desk": config.desk_config, "paper": config.paper_config}
    overall = hashlib.sha256()
    for scale in SCALES:
        for scheme in orchestrator.SCHEMES:
            digest = hashlib.sha256()
            for seed in SEEDS:
                cfg = make[scale](seed=seed)
                res = orchestrator.run(cfg, channels.draw_channels(cfg),
                                       orchestrator.RunOptions(scheme=scheme, max_iter=MAX_ITER))
                digest.update(run_digest(res))
            overall.update(digest.digest())
            print(f"{scale:5s} {scheme:15s} {digest.hexdigest()}")
    print(f"{'all':21s} {overall.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
