"""Record the sr-x4-2k output digest for the default seed.

Run from the repository root: ``python3 perfbench/record_digest.py``.
It rewrites ``perfbench/sr_digest.json``.  Every ``--workload sr-x4-2k``
run, whatever its seed, runs the default seed's band through each network
once after timing and compares the output with this digest (within
``DIGEST_RTOL`` of its RMS); a missing digest counts as a failure.
Re-record only when an output change is intended.
"""
import json

import run


def main() -> None:
    run.import_odsr()
    from odsr import harness
    from odsr.engine.tensor import Tensor
    from workloads import (DEFAULT_SEED, DIGEST_PATH, SR_MODELS, SR_SCALE,
                           SrSize, output_digest, sr_band)

    x = Tensor(sr_band(DEFAULT_SEED, SrSize()))
    digest = {name: output_digest(harness.make_model(name, SR_SCALE)(x).data)
              for name in SR_MODELS}
    DIGEST_PATH.write_text(json.dumps(digest, indent=1) + "\n")
    print(f"wrote {DIGEST_PATH}")


if __name__ == "__main__":
    main()
