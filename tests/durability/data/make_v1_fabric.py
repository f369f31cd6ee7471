"""How ``v1_fabric/`` was made (kept for provenance; not run by the suite).

Run from a checkout of the last format-v1 commit (``799b783``, the parent
of the PR that moved bandwidth to integer bits/s), with that checkout's
``src`` on ``PYTHONPATH`` and the checkout as the working directory::

    PYTHONPATH=src:. python <this file> <output directory>

It writes a small fabric durability directory: a checkpoint at LSN 10 that
holds one stitched tenant, then a 24-record tail (admits with off-grid
demands, a second stitched tenant, evicts, two modifies, a drain/undrain),
plus ``EXPECTED.json`` — where every surviving tenant lives.  Every digest
in it is over float sums, which is what makes it *format v1*.
"""

import json
import shutil
import sys
from pathlib import Path

from repro.durability import FabricDurability, scan_wal
from repro.durability.checkpoint import CHECKPOINT_VERSION
from repro.durability.wal import WAL_VERSION
from tests.durability.conftest import chain, make_fabric

LONG = dict(nf_types=(1, 2, 3, 4, 5, 6, 1, 2, 3), rules=(3,) * 9)


def main(out: Path) -> None:
    assert WAL_VERSION == 1 and CHECKPOINT_VERSION == 1, "not a v1 checkout"
    shutil.rmtree(out, ignore_errors=True)
    fabric = make_fabric()
    durability = FabricDurability(
        out, fsync="always", checkpoint_every=0, keep_checkpoints=1
    ).attach(fabric)
    for t in range(1, 9):
        assert fabric.admit(chain(t, bandwidth_gbps=0.1 * t + 0.7)).ok
    assert fabric.admit(chain(40, bandwidth_gbps=2.3, **LONG)).stitched
    assert fabric.evict(2).ok
    durability.checkpoint(fabric)
    for t in range(9, 21):
        assert fabric.admit(
            chain(t, nf_types=(2, 4, 6), rules=(7, 3, 5), bandwidth_gbps=0.3 * t)
        ).ok
    assert fabric.admit(chain(41, bandwidth_gbps=1.7, **LONG)).stitched
    for t in (4, 11, 15):
        assert fabric.evict(t).ok
    assert fabric.modify(
        5, chain(5, nf_types=(3, 1), rules=(9, 9), bandwidth_gbps=3.3)
    ).ok
    assert fabric.modify(40, chain(40, bandwidth_gbps=0.9, **LONG)).ok
    fabric.drain("sw2")
    fabric.undrain("sw2")
    for t in range(21, 25):
        fabric.admit(chain(t, bandwidth_gbps=1.1))
    assert fabric.check_invariant() == []
    durability.close()
    scan = scan_wal(out / FabricDurability.WAL_NAME)
    expected = {
        "tenants": {
            str(t): list(record.switches)
            for t, record in sorted(fabric.tenants.items())
        },
        "stitched": sorted(t for t, r in fabric.tenants.items() if r.stitched),
        "drained": sorted(fabric.drained),
        "tail_records": len(scan.records),
        "last_lsn": scan.last_lsn,
    }
    (out / "EXPECTED.json").write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n"
    )


if __name__ == "__main__":
    main(Path(sys.argv[1]))
